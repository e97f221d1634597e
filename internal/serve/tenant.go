package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/sched"
)

// Tenant lifecycle states. A tenant moves
//
//	queued -> running -> done | failed | canceled
//	                  \-> draining -> checkpointed      (daemon drain)
//
// and a checkpointed or queued tenant is re-admitted by the restarted
// daemon — checkpointed ones resume from their barrier checkpoint
// exactly-once, queued ones cold-start.
//
// In cluster mode a tenant claimed from a dead or drained peer enters
// handoff — queued on its new owner, about to resume from the
// checkpoint directory the previous owner left behind.
const (
	StateQueued       = "queued"
	StateRunning      = "running"
	StateDraining     = "draining"
	StateCheckpointed = "checkpointed"
	StateHandoff      = "handoff"
	StateDone         = "done"
	StateFailed       = "failed"
	StateCanceled     = "canceled"
)

// RunSpec is the submitted configuration of one tenant run — the JSON
// body of POST /runs. It maps onto core.Config with the daemon supplying
// the isolation pieces (per-tenant WAL/checkpoint directory, drain hook).
type RunSpec struct {
	// Name identifies the tenant; it becomes the run id and the tenant's
	// directory name. Generated when empty.
	Name string `json:"name,omitempty"`

	Datasize     float64 `json:"datasize"`
	TimeScale    float64 `json:"timescale,omitempty"`
	Distribution string  `json:"distribution,omitempty"`
	Periods      int     `json:"periods,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	Engine       string  `json:"engine,omitempty"`
	RemoteDB     bool    `json:"remote_db,omitempty"`
	FastClock    bool    `json:"fast_clock,omitempty"`
	Verify       bool    `json:"verify,omitempty"`

	FaultRate float64 `json:"fault_rate,omitempty"`
	FaultSeed uint64  `json:"fault_seed,omitempty"`

	// BreakerThreshold overrides the circuit-breaker failure ratio when
	// > 0; a value above 1 effectively disables trips. Breaker cooldowns
	// are wall-clock and their trips order-sensitive, so runs that must
	// reproduce a byte-identical state digest across daemons (failover
	// verification) disable them.
	BreakerThreshold float64 `json:"breaker_threshold,omitempty"`

	Columnar        string `json:"columnar,omitempty"`
	Shards          int    `json:"shards,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`

	// Share is the tenant's fair-share weight on the daemon's shared
	// scheduler — its governor reservation and its dispatch priority
	// relative to the other running tenants. Defaults to
	// Options.DefaultShare.
	Share float64 `json:"share,omitempty"`
}

// tenant is one admitted run and its full private stack: scenario
// databases, web services, engine, monitor and durability directory are
// all tenant-local, so a faulty or crashed neighbour cannot perturb it.
type tenant struct {
	id   string
	spec RunSpec
	dir  string

	// mutable state, guarded by the owning Server's mu.
	state       string
	err         string
	digest      string
	report      string
	periodsDone int
	events      int
	failures    int
	retries     uint64
	trips       uint64
	deadLetters uint64
	resumed     bool
	cancel      context.CancelFunc
	bench       *core.Benchmark // non-nil while running
	sched       *sched.Handle   // non-nil while admitted
	lease       *cluster.Lease  // non-nil in cluster mode; the fencing guard
	schedTasks  uint64          // morsels executed (caller + pool workers)
	schedStolen uint64          // tokens stolen while running
}

// share is the tenant's effective fair-share weight.
func (t *tenant) share(def float64) float64 {
	if t.spec.Share > 0 {
		return t.spec.Share
	}
	return def
}

// tenantRecord is the persisted tenant.json — enough to re-admit the
// tenant after a daemon restart.
type tenantRecord struct {
	ID    string  `json:"id"`
	Spec  RunSpec `json:"spec"`
	State string  `json:"state"`
}

// resultRecord is the persisted result.json of a terminal tenant.
type resultRecord struct {
	State       string `json:"state"`
	Digest      string `json:"digest,omitempty"`
	Report      string `json:"report,omitempty"`
	Error       string `json:"error,omitempty"`
	PeriodsDone int    `json:"periods_done"`
	Events      int    `json:"events"`
	Failures    int    `json:"failures"`
	Retries     uint64 `json:"retries,omitempty"`
	Trips       uint64 `json:"trips,omitempty"`
	DeadLetters uint64 `json:"dead_letters,omitempty"`
}

// coreConfig maps the spec onto a core.Config rooted in the tenant's
// private directory.
func (t *tenant) coreConfig(checkpointEvery int, h *sched.Handle, drain func() bool, onPeriod func(int, driver.PeriodStats)) core.Config {
	if t.spec.CheckpointEvery > 0 {
		checkpointEvery = t.spec.CheckpointEvery
	}
	// A typed-nil *cluster.Lease must not become a non-nil FenceGuard.
	var fence checkpoint.FenceGuard
	if t.lease != nil {
		fence = t.lease
	}
	var pol *fault.Policy
	if t.spec.BreakerThreshold > 0 {
		pol = &fault.Policy{BreakerThreshold: t.spec.BreakerThreshold}
	}
	return core.Config{
		Resilience:      pol,
		Fence:           fence,
		Scheduler:       h,
		Datasize:        t.spec.Datasize,
		TimeScale:       t.spec.TimeScale,
		Distribution:    t.spec.Distribution,
		Periods:         t.spec.Periods,
		Seed:            t.spec.Seed,
		Engine:          t.spec.Engine,
		RemoteDB:        t.spec.RemoteDB,
		FastClock:       t.spec.FastClock,
		Verify:          t.spec.Verify,
		FaultRate:       t.spec.FaultRate,
		FaultSeed:       t.spec.FaultSeed,
		Columnar:        t.spec.Columnar,
		Shards:          t.spec.Shards,
		WALDir:          filepath.Join(t.dir, "wal"),
		CheckpointEvery: checkpointEvery,
		Resume:          t.hasCheckpoint(),
		DrainCheck:      drain,
		OnPeriod:        onPeriod,
	}
}

// hasCheckpoint reports whether the tenant's WAL directory holds a
// committed checkpoint manifest — the signal that a re-admitted tenant
// resumes instead of cold-starting.
func (t *tenant) hasCheckpoint() bool {
	_, err := os.Stat(filepath.Join(t.dir, "wal", "manifest.json"))
	return err == nil
}

// persist writes tenant.json atomically (write-temp + rename).
func (t *tenant) persist(state string) error {
	rec := tenantRecord{ID: t.id, Spec: t.spec, State: state}
	return writeJSON(filepath.Join(t.dir, "tenant.json"), rec)
}

// persistResult writes result.json for a terminal tenant.
func (t *tenant) persistResult(rec resultRecord) error {
	return writeJSON(filepath.Join(t.dir, "result.json"), rec)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runTenant executes one tenant end to end inside its isolation
// boundary: a recovered panic or a watchdog expiry marks this tenant
// failed and leaves every other tenant untouched.
func (s *Server) runTenant(t *tenant, h *sched.Handle) {
	defer func() {
		if r := recover(); r != nil {
			s.finishTenant(t, StateFailed, "", "", fmt.Sprintf("panic: %v", r))
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	if s.opts.Watchdog > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), s.opts.Watchdog)
	}
	defer cancel()

	resumed := false
	s.mu.Lock()
	t.state = StateRunning
	t.cancel = cancel
	t.sched = h
	s.mu.Unlock()
	_ = t.persist(StateRunning)

	onPeriod := func(k int, ps driver.PeriodStats) {
		s.mu.Lock()
		t.periodsDone = k + 1
		t.events += ps.Events
		t.failures += ps.Failures
		s.mu.Unlock()
		if s.opts.Kill.OnPeriod() && s.opts.OnKill != nil {
			s.opts.OnKill()
		}
	}
	cfg := t.coreConfig(s.opts.CheckpointEvery, h, s.drainCheck, onPeriod)
	resumed = cfg.Resume

	b, err := core.New(cfg)
	if err != nil {
		s.finishTenant(t, StateFailed, "", "", err.Error())
		return
	}
	defer b.Close()

	s.mu.Lock()
	t.bench = b
	t.resumed = resumed
	s.mu.Unlock()

	res, err := b.RunContext(ctx)
	if s.killed.Load() {
		// The daemon was hard-killed mid-run (Kill, the in-process
		// kill -9 double): leave every durable trace exactly as the kill
		// found it — no state transition, no persist, no lease release.
		// A surviving peer detects the lease expiry and resumes the
		// tenant from its last committed checkpoint.
		s.mu.Lock()
		t.bench, t.cancel, t.sched = nil, nil, nil
		s.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		report := ""
		if res.Report != nil {
			report = res.Report.String()
		}
		s.finishTenant(t, StateDone, b.StateDigest(), report, "")
	case errors.Is(err, driver.ErrDrained):
		// The run stopped at a committed barrier; Close syncs the WAL
		// tail, then the lease is handed off so a live peer (or this
		// daemon's restart) resumes from the checkpoint. Close must come
		// before the hand-off: the lease becomes claimable only once the
		// checkpoint directory is complete.
		s.setTenantState(t, StateCheckpointed)
		_ = t.persist(StateCheckpointed)
		_ = b.Close()
		s.handoffLease(t)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishTenant(t, StateFailed, "", "",
			fmt.Sprintf("watchdog: run exceeded %v deadline", s.opts.Watchdog))
	case errors.Is(err, context.Canceled):
		s.finishTenant(t, StateCanceled, "", "", "canceled")
	default:
		s.finishTenant(t, StateFailed, "", "", err.Error())
	}
}

// handoffLease surrenders a checkpointed tenant's lease for immediate
// claim by a live peer.
func (s *Server) handoffLease(t *tenant) {
	s.mu.Lock()
	l := t.lease
	t.lease = nil
	s.mu.Unlock()
	if l != nil && s.cluster != nil {
		s.cluster.Handoff(l)
	}
}

// finishTenant records a terminal state in memory and on disk. The
// resilience totals survive the benchmark teardown so the metrics
// endpoint keeps reporting them for finished tenants.
func (s *Server) finishTenant(t *tenant, state, digest, report, errMsg string) {
	s.mu.Lock()
	if b := t.bench; b != nil {
		t.retries, t.trips, t.deadLetters = b.Monitor().Resilience().Totals()
	}
	if h := t.sched; h != nil {
		hs := h.Stats()
		t.schedTasks = hs.CallerTasks + hs.WorkerTasks
		t.schedStolen = hs.Stolen
	}
	t.state = state
	t.digest = digest
	t.report = report
	t.err = errMsg
	t.bench = nil
	t.cancel = nil
	t.sched = nil
	lease := t.lease
	t.lease = nil
	rec := resultRecord{
		State: state, Digest: digest, Report: report, Error: errMsg,
		PeriodsDone: t.periodsDone, Events: t.events, Failures: t.failures,
		Retries: t.retries, Trips: t.trips, DeadLetters: t.deadLetters,
	}
	s.mu.Unlock()
	// A fenced owner reaching a terminal state (typically Failed with
	// ErrFenced) no longer owns tenant.json — its successor does; only
	// the owner may write the durable record or retire the lease
	// (Release is ownership-checked again on disk).
	if lease == nil || lease.Check() == nil {
		_ = t.persist(state)
		_ = t.persistResult(rec)
	}
	if lease != nil && s.cluster != nil {
		s.cluster.Release(lease)
	}
}

// setTenantState updates the in-memory state only.
func (s *Server) setTenantState(t *tenant, state string) {
	s.mu.Lock()
	if h := t.sched; h != nil {
		hs := h.Stats()
		t.schedTasks = hs.CallerTasks + hs.WorkerTasks
		t.schedStolen = hs.Stolen
	}
	t.state = state
	t.bench = nil
	t.cancel = nil
	t.sched = nil
	s.mu.Unlock()
}
