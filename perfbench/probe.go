package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared. Other tenants' load comes
// and goes within a second and can halve the benchmark's speed for
// seconds or minutes at a time, far more than any bound a comparison
// between two commits could use. So the benchmark times a fixed probe
// right after every farm-loop step and before every set-up build, and
// rescales the step's host time to reference time: what the step would
// have taken on a host where every probe part takes its reference time.
// The probe is the benchmark's own code and never changes with the
// program, so a faster program still reads faster.
//
// The probe has three parts, each shaped like one kind of work the
// program does:
//   - scan: a least-element search over 64 KiB of float64s, the shape of
//     Step 2 and the demand-curve export (L2-resident, throughput-bound);
//   - chase: a dependent walk through a random cycle over 4 MiB, the
//     pointer-heavy stepping of many machines (cache-missing);
//   - store: clearing a fresh 64 KiB window of a 4 MiB buffer, the
//     writes to newly allocated memory.
//
// Contention does not slow every kind of code alike, so each workload
// scales by the parts that slow down with it (workloadDef.probeParts):
// on deep-cut the scan alone tracks the run, on fleet-idle and farm-serve
// the geometric mean of all three does.

type probePart int

const (
	partScan probePart = iota
	partChase
	partStore
	numParts
)

// allParts is every probe part. Set-up time, mostly allocation and
// initialisation, is scaled by all of them on every workload.
var allParts = []probePart{partScan, partChase, partStore}

// probeRef is each part's host time in a quiet spell on the host the
// baseline was recorded on (a shared two-vCPU Intel Xeon VM; about the
// 10th percentile of 8,000 samples): the reference the host-time metrics
// are scaled to.
var probeRef = probeSample{
	partScan:  36 * time.Microsecond,
	partChase: 80 * time.Microsecond,
	partStore: 9 * time.Microsecond,
}

// probeWindow is how many steps on each side of a step smooth its
// speed estimate.
const probeWindow = 4

const (
	scanLen   = 8 << 10 // float64s: 64 KiB
	chaseLen  = 1 << 20 // uint32s: 4 MiB
	chaseHops = 500
	storeLen  = 4 << 20 // bytes
	storeSpan = 64 << 10
)

// probeSample is one probe: each part's host time.
type probeSample [numParts]time.Duration

// prober holds the probe's data. It lives outside the Go heap, so it
// does not change how often the collector runs in the measured program.
type prober struct {
	scan  []float64
	chase []uint32
	store []byte
	at    uint32 // chase position
	off   int    // store window offset
	sink  float64
}

func newProber() (*prober, error) {
	mem, err := syscall.Mmap(-1, 0, scanLen*8+chaseLen*4+storeLen,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	p := &prober{
		scan:  unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), scanLen),
		chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[scanLen*8])), chaseLen),
		store: mem[scanLen*8+chaseLen*4:],
	}
	for i := range p.scan {
		p.scan[i] = math.Sin(float64(i))
	}
	// One random cycle through every slot (Sattolo's shuffle, fixed
	// xorshift seed), so the walk never settles into a short loop.
	for i := range p.chase {
		p.chase[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(p.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p.chase[i], p.chase[j] = p.chase[j], p.chase[i]
	}
	for i := range p.store {
		p.store[i] = byte(i)
	}
	return p, nil
}

// sample runs each part once and times it.
func (p *prober) sample() probeSample {
	var s probeSample
	t0 := time.Now()
	best, at := math.Inf(1), -1
	for pass := 0; pass < 4; pass++ {
		for i, v := range p.scan {
			if v < best || (v == best && i > at) {
				best, at = v, i
			}
		}
		best += 2
	}
	t1 := time.Now()
	c := p.at
	for i := 0; i < chaseHops; i++ {
		c = p.chase[c]
	}
	p.at = c
	t2 := time.Now()
	clear(p.store[p.off : p.off+storeSpan])
	for i := p.off; i < p.off+storeSpan; i += 64 {
		p.store[i] = byte(at)
	}
	p.off = (p.off + storeSpan) % storeLen
	t3 := time.Now()
	p.sink += best + float64(c)
	s[partScan], s[partChase], s[partStore] = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return s
}

// median returns the part-wise median of n samples.
func (p *prober) median(n int) probeSample {
	ss := make([]probeSample, n)
	for i := range ss {
		ss[i] = p.sample()
	}
	return medianSample(ss)
}

func medianSample(ss []probeSample) probeSample {
	var out probeSample
	ds := make([]time.Duration, len(ss))
	for part := range out {
		for i, s := range ss {
			ds[i] = s[part]
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out[part] = ds[len(ds)/2]
	}
	return out
}

// slowdown is how much slower than reference the host ran the given
// parts: the geometric mean of their time ratios.
func (s probeSample) slowdown(parts []probePart) float64 {
	var sum float64
	for _, part := range parts {
		sum += math.Log(float64(s[part]) / float64(probeRef[part]))
	}
	return math.Exp(sum / float64(len(parts)))
}

// smoothed returns, for each step, the part-wise median of the samples
// within probeWindow steps of it.
func smoothed(ss []probeSample) []probeSample {
	out := make([]probeSample, len(ss))
	for k := range ss {
		lo, hi := max(0, k-probeWindow), min(len(ss), k+probeWindow+1)
		out[k] = medianSample(ss[lo:hi])
	}
	return out
}

// toReference rescales host time d by the host's slowdown.
func toReference(d time.Duration, slowdown float64) time.Duration {
	return time.Duration(float64(d) / slowdown)
}
