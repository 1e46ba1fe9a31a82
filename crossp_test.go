package gcx_test

import (
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// j1RunAllocs is what one J1 run allocates on the zero-copy backing
// once the run-state pools are warm: the result record.
const j1RunAllocs = 1

// TestAllocsAcrossPs holds a run that starts on another P than the last
// one finished on, after a garbage collection — a gcxperf measurement
// window, a gcxd handler under load — to the allocations of a run on a
// warm P (DESIGN.md §13, "Run-state pools"). At GOMAXPROCS 2, two
// goroutines take turns running J1 while the other spins, so each holds
// a P and consecutive runs alternate between them. A sync.Pool keeps
// what a run released in that P's private slot, which the collection
// moves to its victim cache and the next one drops; no other P can take
// it from either, so without the shared front every run would rebuild
// its engine, tokenizer, serializer and slabs. testing.AllocsPerRun
// pins GOMAXPROCS to 1 and would hide the miss, so the test counts
// runtime.MemStats.Mallocs itself; the turns are taken by spinning
// goroutines rather than fresh ones, whose start-up allocates now and
// then.
func TestAllocsAcrossPs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the pools' fronts were sized for one P at start-up")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	doc, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.NDJSONQueries["J1"].Text)
	data := []byte(doc)
	var failed atomic.Value
	run := func() {
		if _, err := q.ExecuteBytes(data, io.Discard, gcx.Options{Format: gcx.FormatNDJSON}); err != nil {
			failed.Store(err)
		}
	}
	// turn says who runs next: 0 this goroutine, 1 the other one; 2
	// ends the other one.
	var turn atomic.Int32
	go func() {
		for {
			switch turn.Load() {
			case 1:
				run()
				turn.Store(0)
			case 2:
				return
			}
		}
	}()
	defer turn.Store(2)
	// alternate runs n pairs of runs, one on each goroutine, and returns
	// the mallocs per run.
	alternate := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			runtime.GC()
			run()
			runtime.GC()
			turn.Store(1)
			for turn.Load() == 1 {
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(2*n)
	}
	alternate(10) // warm the pools on both Ps
	perRun := alternate(100)
	if err := failed.Load(); err != nil {
		t.Fatal(err)
	}
	t.Logf("J1: %.2f mallocs per run, runs alternating between two Ps", perRun)
	if perRun > j1RunAllocs+0.25 {
		t.Errorf("J1 allocates %.2f times per run when runs alternate between Ps, %d on a warm P", perRun, j1RunAllocs)
	}
}
