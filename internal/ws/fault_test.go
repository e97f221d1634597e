package ws

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/schema"
)

// checkGoroutines fails the test if goroutines leaked past the test's own
// cleanups (server stop runs first: cleanups are LIFO, so register this
// before startRegistry).
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at start, %d after cleanup\n%s",
			base, runtime.NumGoroutine(), buf[:n])
	})
}

func TestInjectedHTTP500IsTransient(t *testing.T) {
	checkGoroutines(t)
	reg, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 1)
	plan := fault.NewPlan(fault.Config{Seed: 1, Rate: 1, Kinds: []fault.Kind{fault.KindHTTP500}})
	reg.SetFaultPlan(plan)
	_, err := NewClient(url, schema.SysBeijing, nil).Query("Customers")
	if err == nil {
		t.Fatal("injected 503 did not surface")
	}
	var he *fault.HTTPStatusError
	if !errors.As(err, &he) || he.Status != 503 {
		t.Fatalf("err = %v, want wrapped HTTP 503", err)
	}
	if !fault.IsTransient(err) {
		t.Error("injected 503 should classify as transient")
	}
	if plan.Injections() == 0 || plan.Counts()[fault.KindHTTP500] == 0 {
		t.Errorf("plan recorded %v", plan.Counts())
	}
	// Removing the plan restores normal service.
	reg.SetFaultPlan(nil)
	if _, err := NewClient(url, schema.SysBeijing, nil).Query("Customers"); err != nil {
		t.Fatalf("after plan removal: %v", err)
	}
}

func TestInjectedConnectionResetIsTransient(t *testing.T) {
	checkGoroutines(t)
	reg, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 1)
	reg.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 1, Rate: 1, Kinds: []fault.Kind{fault.KindReset}}))
	_, err := NewClient(url, schema.SysBeijing, nil).Query("Customers")
	if err == nil {
		t.Fatal("dropped connection did not surface")
	}
	if !fault.IsTransient(err) {
		t.Errorf("dropped connection should classify as transient: %v", err)
	}
}

func TestInjectedLatencyDelaysButSucceeds(t *testing.T) {
	checkGoroutines(t)
	reg, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 1)
	spike := 30 * time.Millisecond
	plan := fault.NewPlan(fault.Config{
		Seed: 1, Rate: 1, LatencySpike: spike, Kinds: []fault.Kind{fault.KindLatency},
	})
	reg.SetFaultPlan(plan)
	start := time.Now()
	r, err := NewClient(url, schema.SysBeijing, nil).QueryRelation("Customers")
	if err != nil {
		t.Fatalf("latency fault must not fail the call: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("rows: %d", r.Len())
	}
	if elapsed := time.Since(start); elapsed < spike/2 {
		t.Errorf("latency spike not applied (call took %v)", elapsed)
	}
}

func TestArtificialDelayCancellable(t *testing.T) {
	checkGoroutines(t)
	// A 30s artificial delay must release the handler goroutine as soon as
	// the client departs.
	_, _, url := startRegistry(t, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewClient(url, schema.SysBeijing, nil).QueryContext(ctx, "Customers")
	if err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not unblock the client (took %v)", elapsed)
	}
	// checkGoroutines' cleanup asserts the handler goroutine exits after
	// the registry stops rather than sleeping out the full delay.
}

func TestInjectedFaultDelayHonoursClientDeparture(t *testing.T) {
	checkGoroutines(t)
	reg, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 1)
	reg.SetFaultPlan(fault.NewPlan(fault.Config{
		Seed: 1, Rate: 1, LatencySpike: 30 * time.Second, Kinds: []fault.Kind{fault.KindLatency},
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := NewClient(url, schema.SysBeijing, nil).QueryContext(ctx, "Customers"); err == nil {
		t.Fatal("cancelled query succeeded despite 30s injected spike")
	}
}
