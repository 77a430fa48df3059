package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mrx/internal/core"
	"mrx/internal/mmapstore"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// Snap is one immutable generation of a shard's served index: the frozen
// CSR view every query reads. The mutable M*(k) it was frozen from is not
// part of it; that index belongs to the shard's writer (State), which
// refines it in place. Node IDs are shard-local; the owner maps answers
// through Shard.ToGlobal.
type Snap struct {
	Gen uint64
	FZ  *core.FrozenMStar

	// Serve is the view queries should read: the trusted zero-copy
	// remapping of FZ's atomic on-disk publish when EnablePersist routed
	// this generation to disk, FZ itself otherwise (including when a
	// republish failed — readers are never left behind the write side).
	// Writers keep chaining off FZ: probes and FreezeReusing share heap
	// arrays, never mapped bytes, so a superseded generation's mapping can
	// be unmapped without invalidating anything its successor shares.
	Serve *core.FrozenMStar
}

// Serving returns the frozen view queries should evaluate against: Serve
// when set, FZ otherwise (pre-persist snapshots constructed by older code
// paths leave Serve nil).
func (s *Snap) Serving() *core.FrozenMStar {
	if s.Serve != nil {
		return s.Serve
	}
	return s.FZ
}

// State owns one shard's snapshot lifecycle: the writer's mutable M*(k)
// and a write lock serializing refinement and retirement of it on this
// shard only, an atomic pointer to the frozen generation readers load
// without blocking, and freeze telemetry. Writers on different shards
// never contend — that independence is the point of the partition. It is
// the only snapshot lifecycle in the module: the monolithic engine is a
// single State over a whole-graph shard.
//
// A State is constructed unfrozen (NewState builds the mutable index only)
// and must not serve queries until FreezeInitial publishes generation 0;
// the sharded engine freezes all shards through a bounded worker pool
// before it returns from construction.
type State struct {
	shard *Shard
	opts  core.MStarOptions // serving options, reused for trusted reopens

	mu sync.Mutex // serializes writers on this shard
	// ms is the writer's index, refined in place under mu; no reader ever
	// sees it. frozenAt is its version vector when the current snapshot's
	// FZ was frozen from it.
	ms       *core.MStar
	frozenAt []uint64
	snap     atomic.Pointer[Snap]

	// persistPath, when non-empty, routes every published generation
	// through an atomic on-disk republish (mmapstore.Publish) followed by a
	// trusted zero-copy reopen; set by EnablePersist before FreezeInitial.
	persistPath string
	persistWO   mmapstore.WriteOptions
	persistErrs atomic.Uint64
	persistErr  error // first republish failure; guarded by mu

	freezes       atomic.Uint64
	lastFreezeNs  atomic.Int64
	totalFreezeNs atomic.Int64

	// RefineHook, when non-nil, runs inside Refine while the shard's write
	// lock is held, between evaluation and publish. Tests use it to prove
	// that refinements on different shards overlap in time; it must not
	// call back into the same State.
	RefineHook func()
}

// NewState builds the shard's mutable M*(k)-index at component I0. Call
// FreezeInitial before serving.
func NewState(sh *Shard, opts core.MStarOptions) *State {
	st := &State{shard: sh, opts: opts, ms: core.NewMStarOpts(sh.local, opts)}
	st.snap.Store(&Snap{}) // FZ nil until FreezeInitial
	return st
}

// EnablePersist makes this shard disk-resident: every generation published
// from FreezeInitial on is atomically republished to path as an mmapstore
// snapshot (bound to the shard-local graph) and served from its trusted
// zero-copy remapping. Call it before FreezeInitial; it is not safe to call
// concurrently with writers. A republish failure degrades that generation
// to heap serving, bumps PersistErrors, and records the first error for
// PersistErr.
func (st *State) EnablePersist(path string, compact bool) {
	st.persistPath = path
	st.persistWO = mmapstore.WriteOptions{CompactExtents: compact}
}

// PersistErrors reports how many published generations failed to reach
// disk (each was served from the heap instead).
func (st *State) PersistErrors() uint64 { return st.persistErrs.Load() }

// PersistErr returns the first republish failure, or nil. The sharded
// engine uses it to fail construction when the initial freeze could not be
// persisted.
func (st *State) PersistErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.persistErr
}

// publishLocked publishes next, frozen from st.ms, as the shard's current
// generation, routing it through the persist target first when one is
// configured. Callers hold st.mu.
func (st *State) publishLocked(next *Snap) {
	st.frozenAt = st.ms.Versions()
	next.Serve = next.FZ
	if st.persistPath != "" {
		if serve, err := st.republish(next.FZ); err != nil {
			st.persistErrs.Add(1)
			if st.persistErr == nil {
				st.persistErr = err
			}
		} else {
			next.Serve = serve
		}
	}
	st.snap.Store(next)
}

// republish atomically replaces the shard's on-disk snapshot with fz and
// reopens it as a trusted zero-copy mapping. Trusted is sound: the bytes
// were written by this process one atomic rename ago.
func (st *State) republish(fz *core.FrozenMStar) (*core.FrozenMStar, error) {
	if err := mmapstore.Publish(st.persistPath, fz, st.persistWO); err != nil {
		return nil, fmt.Errorf("shard: persist %s: %w", st.persistPath, err)
	}
	snap, err := mmapstore.Open(st.persistPath, st.shard.local, mmapstore.Options{Trusted: true, MStar: st.opts})
	if err != nil {
		return nil, fmt.Errorf("shard: persist %s: reopen: %w", st.persistPath, err)
	}
	return snap.FrozenMStar(), nil
}

// Shard returns the immutable shard this state serves.
func (st *State) Shard() *Shard { return st.shard }

// Snapshot returns the current generation. The result is immutable.
func (st *State) Snapshot() *Snap { return st.snap.Load() }

// CopyIndex returns a deep copy of the writer's M*(k)-index and the
// generation frozen from it, both taken under the shard's write lock so the
// pair is consistent. The copy is the caller's: the writer keeps refining
// its own index in place.
func (st *State) CopyIndex() (*core.MStar, *Snap) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ms.Clone(), st.snap.Load()
}

// SupportedFUPs returns the shard's FUP registry sorted by canonical form,
// read under the write lock.
func (st *State) SupportedFUPs() []*pathexpr.Expr {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ms.SupportedFUPs()
}

// Generation reports how many snapshots this shard has published since
// FreezeInitial.
func (st *State) Generation() uint64 { return st.snap.Load().Gen }

// FreezeInitial freezes the shard's index and publishes generation 0. It
// is idempotent only in the sense that re-freezing an unrefined index
// produces an identical snapshot; the engine calls it exactly once per
// shard, from its freeze worker pool.
func (st *State) FreezeInitial() {
	st.mu.Lock()
	defer st.mu.Unlock()
	fz := st.timedFreeze(st.ms.Freeze)
	st.publishLocked(&Snap{Gen: st.snap.Load().Gen, FZ: fz})
}

// timedFreeze runs one freeze under the shard's freeze telemetry: the
// wall-clock of the whole freeze, including its per-component fan-out
// (core.MStar.FreezeReusing), not the sum of the components' freeze times.
// Callers hold st.mu.
func (st *State) timedFreeze(freeze func() *core.FrozenMStar) *core.FrozenMStar {
	start := time.Now()
	fz := freeze()
	ns := time.Since(start).Nanoseconds()
	st.freezes.Add(1)
	st.lastFreezeNs.Store(ns)
	st.totalFreezeNs.Add(ns)
	return fz
}

// FreezeStats reports the number of freezes this shard has run and the
// last / cumulative freeze wall-clock, each freeze timed end to end across
// its component fan-out.
func (st *State) FreezeStats() (count uint64, last, total time.Duration) {
	return st.freezes.Load(),
		time.Duration(st.lastFreezeNs.Load()),
		time.Duration(st.totalFreezeNs.Load())
}

// Refine supports the FUP e on this shard: evaluate against the current
// frozen snapshot, REFINE* the writer's index in place, re-freeze only the
// components whose version moved (FreezeReusing), and publish the next
// generation. It locks only this shard and reports whether a snapshot was
// published. A FUP already in the registry, an already-precise answer, or
// an unchanged version vector (a MaxK cap or a descendant-axis FUP made
// refinement a no-op) publishes nothing; a no-op also leaves e out of the
// registry.
func (st *State) Refine(e *pathexpr.Expr, opt query.ValidateOpts) bool {
	st.mu.Lock()
	defer st.mu.Unlock()

	if st.ms.HasFUP(e) {
		return false
	}
	cur := st.snap.Load()
	res, _ := cur.FZ.QueryOpts(e, opt)
	if res.Precise {
		return false
	}
	st.ms.Refine(e, res.Answer)
	if st.ms.UnchangedSince(st.frozenAt) {
		st.ms.ForgetFUP(e)
		return false
	}
	if st.RefineHook != nil {
		st.RefineHook()
	}
	fz := st.timedFreeze(func() *core.FrozenMStar { return st.ms.FreezeReusing(st.frozenAt, cur.FZ) })
	st.publishLocked(&Snap{Gen: cur.Gen + 1, FZ: fz})
	return true
}

// Retire withdraws support for e on this shard by rebuilding from the
// surviving FUP registry (core.Retire), swapping the rebuild in as the
// writer's index and publishing it as a new generation. Retiring an
// expression this shard never refined is a no-op.
func (st *State) Retire(e *pathexpr.Expr) bool {
	st.mu.Lock()
	defer st.mu.Unlock()

	rebuilt, ok := st.ms.Retire(e)
	if !ok {
		return false
	}
	st.ms = rebuilt
	// The rebuild starts from a fresh I0; nothing of the outgoing frozen
	// view survives to reuse.
	fz := st.timedFreeze(rebuilt.Freeze)
	st.publishLocked(&Snap{Gen: st.snap.Load().Gen + 1, FZ: fz})
	return true
}
