package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCloseAfterCancelledRemoteRun cancels a remote run as soon as its
// first instance is in flight. Requests cut short that way leave
// connections that were dialled but never carried a request; Close must
// release them instead of waiting out the servers' graceful drain.
func TestCloseAfterCancelledRemoteRun(t *testing.T) {
	b, err := New(Config{
		Datasize: 0.02, Periods: 2, Seed: 42, FastClock: true,
		Engine: EnginePipeline, RemoteDB: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for b.Monitor().Active() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, err := b.RunContext(ctx); !errors.Is(err, context.Canceled) {
		_ = b.Close()
		t.Fatalf("run error %v, want context.Canceled", err)
	}
	start := time.Now()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("Close took %v after a cancelled run", d)
	}
}
