package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndGet(t *testing.T) {
	var b Breakdown
	b.Add(StageAggregation, time.Second)
	b.Add(StageAggregation, time.Second)
	if b.Get(StageAggregation) != 2*time.Second {
		t.Fatalf("Get = %v", b.Get(StageAggregation))
	}
	if b.Get(StageUpdate) != 0 {
		t.Fatal("untouched stage must be zero")
	}
}

func TestTimeMeasures(t *testing.T) {
	var b Breakdown
	b.Time(StageUpdate, func() { time.Sleep(5 * time.Millisecond) })
	if b.Get(StageUpdate) < 4*time.Millisecond {
		t.Fatalf("Time measured %v", b.Get(StageUpdate))
	}
}

func TestNAUTotal(t *testing.T) {
	var b Breakdown
	b.Add(StageNeighborSelection, time.Second)
	b.Add(StageAggregation, 2*time.Second)
	b.Add(StageUpdate, 3*time.Second)
	b.Add(StageBackward, 10*time.Second)
	if b.NAUTotal() != 6*time.Second {
		t.Fatalf("NAUTotal = %v", b.NAUTotal())
	}
}

func TestMergeAndReset(t *testing.T) {
	var a, b Breakdown
	a.Add(StageSync, time.Second)
	a.MessagesSent.Add(3)
	a.BytesSent.Add(100)
	b.Add(StageSync, 2*time.Second)
	b.MessagesSent.Add(1)
	b.Merge(&a)
	if b.Get(StageSync) != 3*time.Second || b.MessagesSent.Load() != 4 || b.BytesSent.Load() != 100 {
		t.Fatalf("merge wrong: %v %d %d", b.Get(StageSync), b.MessagesSent.Load(), b.BytesSent.Load())
	}
	b.Reset()
	if b.StageTimes() != [StageCount]time.Duration{} || b.MessagesSent.Load() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestTable4Row(t *testing.T) {
	var b Breakdown
	b.Add(StageNeighborSelection, time.Second)
	b.Add(StageAggregation, time.Second)
	b.Add(StageUpdate, 2*time.Second)
	row := b.Table4Row("GCN")
	if !strings.Contains(row, "GCN") || !strings.Contains(row, "25.0%") || !strings.Contains(row, "50.0%") {
		t.Fatalf("Table4Row = %q", row)
	}
	// Zero breakdown must not divide by zero.
	var z Breakdown
	if !strings.Contains(z.Table4Row("x"), "0.0%") {
		t.Fatal("zero breakdown row wrong")
	}
}

func TestStageString(t *testing.T) {
	names := map[Stage]string{
		StageNeighborSelection: "Nbr.Selection",
		StageAggregation:       "Aggregation",
		StageUpdate:            "Update",
		StageBackward:          "Backward",
		StageSync:              "Sync",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestFaultCounters(t *testing.T) {
	var a, b Breakdown
	a.CountAbort()
	a.CountAbort()
	a.CountTimeout()
	if a.Aborts.Load() != 2 || a.Timeouts.Load() != 1 {
		t.Fatalf("counts: aborts=%d timeouts=%d", a.Aborts.Load(), a.Timeouts.Load())
	}
	b.CountTimeout()
	b.Merge(&a)
	if b.Aborts.Load() != 2 || b.Timeouts.Load() != 2 {
		t.Fatalf("merged: aborts=%d timeouts=%d", b.Aborts.Load(), b.Timeouts.Load())
	}
	// The faults line appears only when something actually failed.
	if table := b.TrafficTable(); !strings.Contains(table, "aborts=2") || !strings.Contains(table, "timeouts=2") {
		t.Fatalf("TrafficTable missing faults line:\n%s", table)
	}
	b.Reset()
	if b.Aborts.Load() != 0 || b.Timeouts.Load() != 0 {
		t.Fatal("reset did not clear fault counters")
	}
	if strings.Contains(b.TrafficTable(), "faults") {
		t.Fatal("healthy breakdown must not print a faults line")
	}
}

func TestConcurrentUse(t *testing.T) {
	var b Breakdown
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Add(StageSync, time.Microsecond)
				b.MessagesSent.Add(1)
			}
		}()
	}
	wg.Wait()
	if b.Get(StageSync) != 800*time.Microsecond || b.MessagesSent.Load() != 800 {
		t.Fatalf("concurrent accumulation wrong: %v %d", b.Get(StageSync), b.MessagesSent.Load())
	}
}

func TestTimeRecordsOnPanic(t *testing.T) {
	// A stage that panics must still contribute its elapsed time to the
	// breakdown.
	var b Breakdown
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the panic to propagate")
			}
		}()
		b.Time(StageAggregation, func() {
			time.Sleep(2 * time.Millisecond)
			panic("collective failure")
		})
	}()
	if b.Get(StageAggregation) < time.Millisecond {
		t.Fatalf("panicked stage recorded %v", b.Get(StageAggregation))
	}
}

func TestStageTimesSnapshot(t *testing.T) {
	var b Breakdown
	b.Add(StageUpdate, 3*time.Second)
	b.Add(StageSync, time.Second)
	times := b.StageTimes()
	if len(times) != StageCount {
		t.Fatalf("StageTimes length %d, want %d", len(times), StageCount)
	}
	if times[StageUpdate] != 3*time.Second || times[StageSync] != time.Second {
		t.Fatalf("snapshot wrong: %v", times)
	}
	// The snapshot is a copy: later mutation must not alter it.
	b.Add(StageUpdate, time.Second)
	if times[StageUpdate] != 3*time.Second {
		t.Fatal("snapshot aliases live state")
	}
}

func TestConcurrentPerClassCounters(t *testing.T) {
	// CountSent/CountRecv per message class racing Merge and Reset must be
	// free of data races (run under -race via the Makefile race target) and
	// must conserve bytes when the races are quiesced.
	var b, sink Breakdown
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sink.Merge(&b)
				sink.Reset()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := MsgClass(g % int(NumMsgClasses))
			for i := 0; i < 500; i++ {
				b.CountSent(class, 10)
				b.CountRecv(class, 20)
			}
		}(g)
	}
	// Only the counting goroutines must finish before the final tally.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Wait for counters: 4 goroutines x 500 sends.
	for b.MessagesSent.Load() < 2000 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if b.BytesSent.Load() != 2000*10 || b.BytesRecv.Load() != 2000*20 {
		t.Fatalf("aggregate bytes wrong: sent=%d recv=%d", b.BytesSent.Load(), b.BytesRecv.Load())
	}
	var perClassSent int64
	for c := MsgClass(0); c < NumMsgClasses; c++ {
		perClassSent += b.SentBytes(c)
	}
	if perClassSent != 2000*10 {
		t.Fatalf("per-class sent bytes %d, want %d", perClassSent, 2000*10)
	}
}
