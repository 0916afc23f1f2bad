package core_test

// Cancellation contract of the parallel engine: cancelling the context
// stops claiming units at the next boundary, joins every worker
// goroutine (no leaks, checked under -race by the test-race tier), and
// surfaces ctx.Err() — with in-flight units allowed to finish.

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cogdiff/internal/core"
)

// waitNoGoroutineLeak polls until the goroutine count returns to the
// baseline, failing the test if it never does. Polling absorbs the
// scheduler's lag between wg.Wait returning and workers unwinding.
func waitNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d live, baseline %d", runtime.NumGoroutine(), base)
}

func TestRunUnitsCtxCancelStopsClaiming(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var executed atomic.Int64
	const huge = 1 << 30
	done := make(chan error, 1)
	go func() {
		done <- core.RunUnitsCtx(ctx, 4, huge, func(i int) {
			executed.Add(1)
			time.Sleep(time.Millisecond)
		})
	}()
	// Let a few units execute, then cancel: the run must return promptly
	// instead of draining the (practically infinite) unit count.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("RunUnitsCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunUnitsCtx did not return after cancellation")
	}
	if n := executed.Load(); n == 0 || n >= huge {
		t.Errorf("executed %d units, want some but far fewer than %d", n, huge)
	}
	waitNoGoroutineLeak(t, base)
}

func TestRunUnitsCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := core.RunUnitsCtx(ctx, 1, 10, func(i int) { ran = true }); err != context.Canceled {
		t.Errorf("pre-cancelled serial run returned %v, want context.Canceled", err)
	}
	if ran {
		t.Error("pre-cancelled run still executed a unit")
	}
	if err := core.RunUnitsCtx(ctx, 4, 10, func(i int) {}); err != context.Canceled {
		t.Errorf("pre-cancelled parallel run returned %v, want context.Canceled", err)
	}
}

// TestCampaignCancelIsLeakFree cancels a campaign from its own progress
// callback — the first completed test unit pulls the plug — and checks
// the run surfaces context.Canceled with every worker goroutine joined.
func TestCampaignCancelIsLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := determinismConfig()
	cfg.Workers = 4
	cfg.OnInstructionDone = func(ev core.InstructionDone) {
		if ev.Done == 1 {
			cancel()
		}
	}
	res, err := core.NewCampaign(cfg).RunContext(ctx)
	if err != context.Canceled {
		t.Errorf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled campaign returned a partial result, want nil")
	}
	waitNoGoroutineLeak(t, base)
}

// TestCancelledCampaignLeavesCacheSound cancels a cache-writing campaign
// from its first completed unit and reruns it through the same
// directory: the cancelled run may leave only complete entries behind,
// so the rerun must render every deterministic surface exactly as an
// uncached serial run does.
func TestCancelledCampaignLeavesCacheSound(t *testing.T) {
	want := renderSurfaces(runCampaignWithCache(t, nil, 1))
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := determinismConfig()
	cfg.Workers = 4
	cfg.Cache = openCampaignCache(t, dir, nil)
	cfg.OnInstructionDone = func(ev core.InstructionDone) {
		if ev.Done == 1 {
			cancel()
		}
	}
	if _, err := core.NewCampaign(cfg).RunContext(ctx); err != context.Canceled {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}

	rerun := runCampaignWithCache(t, openCampaignCache(t, dir, nil), 4)
	if got := renderSurfaces(rerun); got != want {
		t.Errorf("rerun through the cancelled run's cache diverged from the uncached serial run:\n--- uncached ---\n%s\n--- rerun ---\n%s", want, got)
	}
}
