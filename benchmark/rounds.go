package main

import (
	"runtime"
	"sync"
	"time"
)

// Raw wall time does not repeat on the reference host: co-tenants change how
// fast it runs by up to 1.7x for minutes at a time (ten raw runs of one commit
// spread 0.25-0.30 on five of the seven workloads; README.md, "Calibration"),
// and the contract accepts no benchmark whose runs spread wider than 0.25. So
// an end-to-end run is numRounds rounds of {set the workload up from scratch,
// measure a slice of the timed phase, tear it down}, the host's speed is read
// before and after every set-up and every stretch of timed work, and each
// number is scaled by the host's speed around it — one rule for every
// workload and metric (meter). The host is read only while the program is
// idle, so a reading never competes with the program. Raw numbers go to the
// detail line; per-layer metrics are never scaled.

// numRounds is how many rounds a run has (a cluster run twice as many): as
// many set-ups feed setup_s' median.
const numRounds = 6

// yardstick is the fixed kernel that reads the host's speed. It shares no code
// with the program, so a change to the program moves the program's numbers
// and not the yardstick; a change of host speed moves both. It has two halves
// of about equal time, because the host's slow states differ in what they
// slow: c = a*k + b streamed twice over three 4 MB arrays (past the 2 MB L2, like
// the aggregation and skinny-matmul loops), then eight independent
// multiply-add chains in registers (like the arithmetic inside them). Either
// half alone tracked epochs within a sweep, but over an hour a state came that
// slowed the register half 1.8x, an epoch 1.6x and the streaming half not at
// all. Every GOMAXPROCS goroutine runs both halves, as the program's parallel
// kernels use every CPU.
type yardstick struct {
	a, b, c []float32
	procs   int
	sink    []float64
}

const (
	yardLen   = 1 << 20 // float32 elements per array, 12 MB in all
	yardIters = 150000  // register-half iterations, sized to the streaming half's time
	yardRuns  = 11      // kernel runs behind one reading, about 25 ms
	// yardRefS is the kernel's time on the fast host. It only puts scaled
	// numbers near wall milliseconds; any constant would do, as long as both
	// sides of a comparison use the same one.
	yardRefS = 1.8e-3
)

func newYardstick(procs int) *yardstick {
	y := &yardstick{a: make([]float32, yardLen), b: make([]float32, yardLen), c: make([]float32, yardLen), procs: procs, sink: make([]float64, procs)}
	for i := range y.a {
		y.a[i], y.b[i] = float32(i&1023), 1
	}
	y.once() // fault the pages in
	return y
}

func (y *yardstick) once() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	chunk := yardLen / y.procs
	for p := 0; p < y.procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo, hi := p*chunk, (p+1)*chunk
			a, b, c := y.a[lo:hi], y.b[lo:hi], y.c[lo:hi]
			for pass := 0; pass < 2; pass++ {
				for i := range a {
					c[i] = a[i]*1.0001 + b[i]
				}
			}
			var s [8]float64
			for i := 0; i < yardIters; i++ {
				for k := range s {
					s[k] = s[k]*0.999 + 1
				}
			}
			y.sink[p] = s[0] + s[7]
		}(p)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// slowdown is one reading: how slow the host is right now, as the median of
// yardRuns kernel runs over yardRefS.
func (y *yardstick) slowdown() float64 {
	runs := make([]float64, yardRuns)
	for r := range runs {
		runs[r] = y.once()
	}
	return median(runs) / yardRefS
}

// roundState is what a workload's rounds share.
type roundState struct {
	losses []float32 // the first round's losses, which every later round must repeat
	epochS float64   // cluster workloads: the previous round's mean epoch seconds
}

// meter collects a run's end-to-end samples, each scaled by the host's
// slowdown over the interval it ran in: the mean of the readings that bracket
// the interval.
type meter struct {
	yard *yardstick
	last float64 // the latest reading

	slows                 []float64
	setups, rawSetups     []float64
	opsMS, rawOpsMS       []float64
	work, workS, rawWorkS float64
}

// fence starts a round: the previous round's garbage is collected, so that the
// collector does not run beside the kernel and every round starts from the
// same heap, and a fresh reading opens the first interval.
func (m *meter) fence() {
	runtime.GC()
	m.last = m.yard.slowdown()
	m.slows = append(m.slows, m.last)
}

// interval closes the interval since the previous reading and returns the
// host's slowdown over it.
func (m *meter) interval() float64 {
	prev := m.last
	m.last = m.yard.slowdown()
	m.slows = append(m.slows, m.last)
	return (prev + m.last) / 2
}

// setup books a set-up that ran while the host was slowed by `slow`.
func (m *meter) setup(seconds, slow float64) {
	m.setups = append(m.setups, seconds/slow)
	m.rawSetups = append(m.rawSetups, seconds)
}

// ops books operations that ran while the host was slowed by `slow`: one
// entry of opsMS per operation (epoch time, or open-loop latency), and for
// the throughput `work` units (root vertices trained, or closed-loop queries
// completed) done in workS seconds.
func (m *meter) ops(opsMS []float64, work, workS, slow float64) {
	for _, ms := range opsMS {
		m.opsMS = append(m.opsMS, ms/slow)
	}
	m.rawOpsMS = append(m.rawOpsMS, opsMS...)
	m.work += work
	m.workS += workS / slow
	m.rawWorkS += workS
}

// report fills the three end-to-end metrics from all rounds' samples; the raw
// numbers and the readings go to the detail line.
func (m *meter) report(e *env) {
	e.metrics["op_p50_ms"] = median(m.opsMS)
	e.metrics["throughput_per_s"] = m.work / m.workS
	e.metrics["setup_s"] = median(m.setups)
	e.detail["samples"] = len(m.opsMS)
	e.detail["host_slowdown_quantiles"] = quantiles(m.slows)
	e.detail["raw_op_quantiles_ms"] = quantiles(m.rawOpsMS)
	e.detail["raw_throughput_per_s"] = m.work / m.rawWorkS
	e.detail["raw_setups_s"] = m.rawSetups
}
