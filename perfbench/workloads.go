package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/units"
	"repro/internal/workload"
)

// shape sizes one workload: clusters × nodes per cluster × CPUs per node,
// run for horizon simulated seconds. The benchmark runs the full shapes;
// the package test runs the tiny ones.
type shape struct {
	clusters, nodes, cpus int
	horizon               float64
}

// workloadDef is one benchmark workload: its shapes and a constructor that
// turns a seed into a fleet. The constructor is the only place the seed is
// read; the program receives the generated machines, jobs and arrival
// streams.
type workloadDef struct {
	name       string
	full, tiny shape
	build      func(rng *rand.Rand, sh shape, tr *tracer) (*fleet, error)
	// probeParts are the probe parts whose slowdown host contention
	// shares with this workload (see probe.go).
	probeParts []probePart
}

var workloads = []workloadDef{
	{
		name:       "fleet-idle",
		full:       shape{clusters: 8, nodes: 128, cpus: 4, horizon: 30},
		tiny:       shape{clusters: 2, nodes: 8, cpus: 4, horizon: 3},
		build:      buildFleetIdle,
		probeParts: []probePart{partScan, partChase, partStore},
	},
	{
		name:       "deep-cut",
		full:       shape{clusters: 2, nodes: 48, cpus: 8, horizon: 6},
		tiny:       shape{clusters: 2, nodes: 2, cpus: 8, horizon: 1},
		build:      buildDeepCut,
		probeParts: []probePart{partScan},
	},
	{
		name:       "farm-serve",
		full:       shape{clusters: 64, nodes: 2, cpus: 4, horizon: 30},
		tiny:       shape{clusters: 4, nodes: 2, cpus: 4, horizon: 2},
		build:      buildFarmServe,
		probeParts: []probePart{partScan, partChase, partStore},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Farm settings shared by every workload: a reallocation pass every
// scheduling period (10 quanta = 100 ms), leases that outlive three
// passes, and a 2% safety margin.
const (
	farmPeriods  = 10
	farmLeaseTTL = 0.3
	farmSafety   = 0.02
	nodeRTT      = 0.002
)

// fleet is one generated workload, ready to drive.
type fleet struct {
	quantum float64
	horizon float64
	table   *power.Table
	units   []*unit
	members []farm.Member
	source  farm.BudgetSource
	alloc   *farm.Allocator
	nodes   int
}

// unit is one cluster: its coordinator, lease holder, machines and, on
// farm-serve, its stations and ledger.
type unit struct {
	name     string
	coord    *cluster.Coordinator
	holder   *farm.Holder
	machines []*machine.Machine
	stations []*station
	ledger   *obs.Ledger
	skips    *skipCounter
}

type station struct {
	st   *serve.Station
	feed *serve.Feeder
}

func schedConfig() fvsst.Config {
	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal = true
	return cfg
}

// maxPower is every CPU of the shape at the table's top setting.
func maxPower(sh shape, table *power.Table) units.Power {
	return units.Power(float64(sh.clusters*sh.nodes*sh.cpus) * table.PowerAtIndex(table.Len()-1).W())
}

// newFleet wires generated clusters under one farm allocator. Each
// coordinator gets a lease holder as its budget source and a
// pass-through waker that counts skipped quanta. In the traced run every
// coordinator and station reports into a traceSink wrapping the
// cluster's own sink.
func newFleet(sh shape, src farm.BudgetSource, us []*unit, tr *tracer) (*fleet, error) {
	cfg := schedConfig()
	f := &fleet{horizon: sh.horizon, table: cfg.Table, source: src, units: us}
	for _, u := range us {
		var nodes []*cluster.Node
		for _, m := range u.machines {
			nodes = append(nodes, &cluster.Node{Name: m.Config().Name, M: m, RTT: nodeRTT})
		}
		f.nodes += len(nodes)
		f.quantum = nodes[0].M.Config().Quantum
		// The opening budget is a placeholder: the first reallocation pass
		// grants every holder a lease before the first Step reads it.
		c, err := cluster.New(cfg, cfg.Table.PowerAtIndex(0), nodes...)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", u.name, err)
		}
		if sink := u.sink(tr); sink != nil {
			c.SetSink(sink)
		}
		if len(u.stations) > 0 || tr != nil {
			c.SetQuantumHook(u.hooks(tr))
		}
		floor := c.FloorPower()
		h, err := farm.NewHolder(u.name, floor, nil, nil)
		if err != nil {
			return nil, err
		}
		c.SetBudgetSource(h)
		u.skips = &skipCounter{}
		c.AddWaker(u.skips)
		for _, s := range u.stations {
			c.AddWaker(serve.TimelineWaker{St: s.st, Feed: s.feed})
		}
		u.coord, u.holder = c, h
		f.members = append(f.members, farm.Member{Name: u.name, Floor: floor})
	}
	alloc, err := farm.NewAllocator(farm.AllocatorConfig{
		Source:   src,
		Members:  f.members,
		Periods:  farmPeriods,
		LeaseTTL: farmLeaseTTL,
		Safety:   farmSafety,
		Policy:   farm.PolicyLeastLoss,
	})
	if err != nil {
		return nil, err
	}
	f.alloc = alloc
	return f, nil
}

// sink is what the unit's coordinator and stations report into: the
// ledger (farm-serve only), wrapped by a traceSink in the traced run.
func (u *unit) sink(tr *tracer) obs.Sink {
	var inner obs.Sink
	if u.ledger != nil {
		inner = u.ledger
	}
	if tr != nil {
		return &traceSink{t: tr, inner: inner}
	}
	return inner
}

// hooks bracket each coordinator Step's lockstep node stepping: stations
// take arrivals and start idle CPUs before it and expire timeouts after
// it. In the traced run the span between the two hooks is the machine
// layer's stepping time.
func (u *unit) hooks(tr *tracer) (before, after func(now float64)) {
	before = func(now float64) {
		if len(u.stations) > 0 {
			tr.begin(layerServeHook)
			for _, s := range u.stations {
				s.feed.DeliverUpTo(now, s.st)
				s.st.BeforeQuantum(now)
			}
			tr.end()
		}
		tr.begin(layerLockstep)
	}
	after = func(now float64) {
		tr.end()
		if len(u.stations) > 0 {
			tr.begin(layerServeHook)
			for _, s := range u.stations {
				s.st.AfterQuantum(now)
			}
			tr.end()
		}
	}
	return before, after
}

// dropAt is a failover instant half a quantum before reallocation edge
// k: the coordinators' accumulated clocks reach the edge just short of
// its product value, so the drop is already in force when the allocator
// looks.
func dropAt(k int, quantum float64) float64 {
	return (float64(k*farmPeriods) - 0.5) * quantum
}

// epochAt is the reallocation edge nearest simulated time t, at least the
// first.
func epochAt(t float64) int {
	k := int(math.Round(t / (float64(farmPeriods) * machine.P630Config().Quantum)))
	if k < 1 {
		k = 1
	}
	return k
}

// fleet-idle: about 1k 4-CPU halting-idle nodes, quiet (noise-free) so
// idle spans fast-forward. A random quarter of the nodes get sparse
// one-quantum gzip bursts; the farm budget never binds. The bursty nodes
// take evenly spaced slots of the burst period in a seeded order, at a
// seeded offset within the slot, so how many nodes burst in any one
// reallocation period, and with it the cost of the heaviest passes, does
// not drift with the seed.
func buildFleetIdle(rng *rand.Rand, sh shape, tr *tracer) (*fleet, error) {
	const burstEvery = 10.0
	total := sh.clusters * sh.nodes
	slot := make([]int, total)
	for i := range slot {
		slot[i] = -1
	}
	bursty := rng.Perm(total)[:total/4]
	for k, i := range bursty {
		slot[i] = k
	}
	var us []*unit
	for c := 0; c < sh.clusters; c++ {
		u := &unit{name: fmt.Sprintf("idle%d", c)}
		for j := 0; j < sh.nodes; j++ {
			cfg := machine.P630Config()
			cfg.Name = fmt.Sprintf("idle%d-%d", c, j)
			cfg.NumCPUs = sh.cpus
			cfg.Idle = machine.IdleHalt
			cfg.LatencyJitterSigma = 0
			cfg.MeterNoiseSigma = 0
			cfg.Contention = memhier.Contention{}
			cfg.ThrottleSettle = 0
			cfg.Seed = rng.Int63()
			m, err := machine.New(cfg)
			if err != nil {
				return nil, err
			}
			if k := slot[c*sh.nodes+j]; k >= 0 {
				phase := (float64(k) + rng.Float64()) / float64(len(bursty)) * burstEvery
				var sched workload.Schedule
				for at := 0.05 + phase; at < sh.horizon; at += burstEvery {
					sched = append(sched, workload.Arrival{At: at, CPU: rng.Intn(sh.cpus), Program: workload.Gzip(0.002)})
				}
				if err := m.Submit(sched); err != nil {
					return nil, err
				}
			}
			u.machines = append(u.machines, m)
		}
		us = append(us, u)
	}
	return newFleet(sh, farm.Static(maxPower(sh, power.PaperTable1())), us, tr)
}

// deep-cut: two large clusters of busy 8-CPU nodes, every CPU running an
// endless CPU-bound or memory-bound program with randomised parameters,
// so each CPU has its own loss curve. A sixth of the way in (one second
// at full shape), the grid fails over to a supply of 40% of maximum and
// Step 2 has to cut deep.
func buildDeepCut(rng *rand.Rand, sh shape, tr *tracer) (*fleet, error) {
	var us []*unit
	for c := 0; c < sh.clusters; c++ {
		u := &unit{name: fmt.Sprintf("deep%d", c)}
		for j := 0; j < sh.nodes; j++ {
			cfg := machine.P630Config()
			cfg.Name = fmt.Sprintf("deep%d-%d", c, j)
			cfg.NumCPUs = sh.cpus
			cfg.Seed = rng.Int63()
			m, err := machine.New(cfg)
			if err != nil {
				return nil, err
			}
			// Exactly half of each node's CPUs are CPU-bound, in a seeded
			// order, so the fleet's mix does not drift with the seed.
			for i, cpu := range rng.Perm(sh.cpus) {
				var ph workload.Phase
				if i%2 == 0 {
					ph = serve.PhaseProfile(1.2+0.4*rng.Float64(), 0.0001+0.0004*rng.Float64())
				} else {
					ph = serve.PhaseProfile(1.0+0.2*rng.Float64(), 0.004+0.016*rng.Float64())
				}
				ph.Instructions = 1e15
				mix, err := workload.NewMix(workload.Program{Name: "steady", Phases: []workload.Phase{ph}})
				if err != nil {
					return nil, err
				}
				if err := m.SetMix(cpu, mix); err != nil {
					return nil, err
				}
			}
			u.machines = append(u.machines, m)
		}
		us = append(us, u)
	}
	max := maxPower(sh, power.PaperTable1())
	src := farm.Failover{
		At:     dropAt(epochAt(sh.horizon/6), machine.P630Config().Quantum),
		Before: farm.Static(max),
		After:  farm.Static(0.4 * max),
	}
	return newFleet(sh, src, us, tr)
}

// Request classes for farm-serve: a frequency-sensitive web class with a
// latency SLO and a queue-wait timeout, and a memory-bound batch class.
func serveClasses() []serve.Class {
	return []serve.Class{
		{Name: "web", Phase: serve.PhaseProfile(1.3, 0.0005), MeanInstr: 70e6, SizeCV: 0.25,
			SLO: 0.210, Timeout: 2.0, Priority: 1, QueueCap: 512},
		{Name: "batch", Phase: serve.PhaseProfile(1.1, 0.02), MeanInstr: 60e6, SizeCV: 0.5,
			SLO: 1.500, QueueCap: 512},
	}
}

// farm-serve: many two-node clusters of serving stations. A random
// quarter of the clusters are hot (four bursty diurnal web clients and
// a Poisson batch client per node); the rest are cold (two light web
// clients). Halfway through, the farm budget drops from 60% to 35% of
// maximum under the least-loss allocator. Every cluster carries an
// obs.Ledger on its coordinator and stations.
func buildFarmServe(rng *rand.Rand, sh shape, tr *tracer) (*fleet, error) {
	hot := make([]bool, sh.clusters)
	for _, i := range rng.Perm(sh.clusters)[:(sh.clusters+3)/4] {
		hot[i] = true
	}
	var us []*unit
	for c := 0; c < sh.clusters; c++ {
		u := &unit{name: fmt.Sprintf("serve%d", c), ledger: obs.NewLedger()}
		sink := u.sink(tr)
		phase := rng.Float64()
		webSpec := fmt.Sprintf("gamma:0.5,cv=1.5,depth=0.5,period=%g,phase=%g", sh.horizon, phase)
		webClients, batch := 2, false
		if hot[c] {
			webSpec = fmt.Sprintf("gamma:2,cv=1.5,depth=0.5,period=%g,phase=%g", sh.horizon, phase)
			webClients, batch = 4, true
		}
		for j := 0; j < sh.nodes; j++ {
			cfg := machine.P630Config()
			cfg.Name = fmt.Sprintf("serve%d-%d", c, j)
			cfg.NumCPUs = sh.cpus
			cfg.Seed = rng.Int63()
			m, err := machine.New(cfg)
			if err != nil {
				return nil, err
			}
			clients := webClients
			if batch {
				clients++
			}
			st, err := serve.NewStation(m, serve.Config{
				Classes: serveClasses(),
				Clients: clients,
				Seed:    rng.Int63(),
				Node:    cfg.Name,
				Sink:    sink,
			})
			if err != nil {
				return nil, err
			}
			feed := &serve.Feeder{}
			for cl := 0; cl < webClients; cl++ {
				if err := addStream(feed, webSpec, 0, cl, rng.Int63()); err != nil {
					return nil, err
				}
			}
			if batch {
				if err := addStream(feed, "poisson:1", 1, webClients, rng.Int63()); err != nil {
					return nil, err
				}
			}
			u.machines = append(u.machines, m)
			u.stations = append(u.stations, &station{st: st, feed: feed})
		}
		us = append(us, u)
	}
	max := maxPower(sh, power.PaperTable1())
	src := farm.Failover{
		At:     dropAt(epochAt(sh.horizon/2), machine.P630Config().Quantum),
		Before: farm.Static(0.6 * max),
		After:  farm.Static(0.35 * max),
	}
	return newFleet(sh, src, us, tr)
}

func addStream(feed *serve.Feeder, spec string, class, client int, seed int64) error {
	a, err := serve.ParseArrivalSpec(spec)
	if err != nil {
		return err
	}
	s, err := a.NewStream(seed)
	if err != nil {
		return err
	}
	feed.Add(class, client, s)
	return nil
}
