package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ResolveWorkers resolves a Workers configuration value: 0 defaults to
// runtime.GOMAXPROCS(0), anything else is clamped to at least 1.
func ResolveWorkers(w int) int {
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (c *Campaign) workerCount() int { return ResolveWorkers(c.Config.Workers) }

// RunUnitsCtx executes fn(0..n-1) over a pool of worker goroutines. Units
// are claimed from a shared atomic counter, so scheduling is
// work-stealing-ish: a worker that drew a cheap unit immediately claims
// the next one. With workers <= 1 it degenerates to a plain loop on the
// calling goroutine — the strictly serial mode the determinism tests
// compare against.
//
// Cancelling ctx stops the pool claiming new units; units already
// running finish (they are short), every worker goroutine exits, and
// RunUnitsCtx returns ctx.Err(). The pool never leaks goroutines: all
// exits funnel through the WaitGroup, cancelled or not.
//
// RunUnitsCtx establishes a happens-before edge between every completed
// fn call and its return (via WaitGroup), so callers may read unit
// results without further synchronization. The campaign engine and the
// fuzzer shard their work through it.
func RunUnitsCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
