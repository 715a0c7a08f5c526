package serve

// N-way shard replication: each logical shard runs a ReplicaSet of
// independent Servers over read-equivalent stores. Reads load-balance across
// live replicas with power-of-two-choices over in-flight depth, hedge to a
// second replica when the first is slow, and fail over when a replica dies
// mid-flight. Writes serialize under the set's write lock and apply to every
// live replica in the same order — replicas run identical live policies, so
// an identical write stream keeps them answer-equivalent. A dead replica
// catches back up by replaying the set's replication log: the sealed
// segments and tombstone deltas the epoch machinery already publishes
// (Store.LineageSince), shipped by reference and adopted idempotently.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"inspire/internal/segment"
)

// ReplicaState is a replica's health: Live replicas serve reads and apply
// writes; a Lagging replica is replaying catch-up; a Dead replica is out of
// rotation until revived.
type ReplicaState int32

const (
	ReplicaLive ReplicaState = iota
	ReplicaLagging
	ReplicaDead
)

func (s ReplicaState) String() string {
	switch s {
	case ReplicaLive:
		return "live"
	case ReplicaLagging:
		return "lagging"
	case ReplicaDead:
		return "dead"
	}
	return "unknown"
}

// Replica is one health-tracked Server inside a ReplicaSet. The server
// pointer is atomic because a full resync (catch-up past the log's floor)
// swaps in a freshly replicated store; sessions detect the swap and reopen.
type Replica struct {
	srv      atomic.Pointer[Server]
	state    atomic.Int32
	failed   atomic.Bool
	inflight atomic.Int64
	stallNS  atomic.Int64

	// lastApplied is the set-log sequence this replica has fully applied;
	// guarded by the owning set's wmu.
	lastApplied uint64
}

// Server returns the replica's current server.
func (rep *Replica) Server() *Server { return rep.srv.Load() }

func (rep *Replica) store() *Store { return rep.srv.Load().store }

// State returns the replica's health.
func (rep *Replica) State() ReplicaState { return ReplicaState(rep.state.Load()) }

// SetStall injects a per-read delay — the slow-replica fault the hedging
// benchmarks and tests use. Zero clears it.
func (rep *Replica) SetStall(d time.Duration) { rep.stallNS.Store(int64(d)) }

func (rep *Replica) live() bool {
	return ReplicaState(rep.state.Load()) == ReplicaLive && !rep.failed.Load()
}

// setLogEntry is one set-level replication-log record: a store-level
// seal/tombstone entry renumbered into the set's own dense sequence, so
// catch-up survives the primary changing (per-store epochs diverge across
// replicas — background compaction takes epochs nondeterministically — but
// the set sequence is single-writer under wmu).
type setLogEntry struct {
	seq  uint64
	kind viewKind
	segs []*segment.Segment
	tomb int64
}

// setLogCap bounds the set log; a replica dead for longer falls back to a
// full resync (Replicate).
const setLogCap = 1024

// ReplicaSet is one logical shard's replica group.
type ReplicaSet struct {
	reps  []*Replica
	hedge time.Duration // <= 0 disables hedged reads

	// wmu serializes writes and catch-up across the set: every mutation
	// applies primary-first, then to each live follower, in one order.
	wmu sync.Mutex

	// The set log, harvested from the current primary store's replication
	// log after every write (guarded by wmu). srcStore/srcEpoch anchor the
	// harvest; logFloor is the last sequence unavailable to catch-up.
	log      []setLogEntry
	logSeq   uint64
	logFloor uint64
	srcStore *Store
	srcEpoch uint64
}

// newReplicaSet builds the shard's replica group: the given server is
// replica 0, and each additional replica serves a Replicate() copy of its
// store (shared immutable base, identical live policy and live state).
func newReplicaSet(primary *Server, n int, cfg Config) (*ReplicaSet, error) {
	set := &ReplicaSet{hedge: cfg.HedgeAfter}
	add := func(srv *Server) {
		rep := &Replica{}
		rep.srv.Store(srv)
		set.reps = append(set.reps, rep)
	}
	add(primary)
	for i := 1; i < n; i++ {
		st, err := primary.store.Replicate()
		if err != nil {
			return nil, fmt.Errorf("serve: replica %d: %w", i, err)
		}
		srv, err := newServer(st, cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: replica %d: %w", i, err)
		}
		add(srv)
	}
	return set, nil
}

// primary returns the first live replica, falling back to replica 0 when
// none is (a fully dead set still needs a stats/signature source).
func (set *ReplicaSet) primary() *Replica {
	for _, rep := range set.reps {
		if rep.live() {
			return rep
		}
	}
	return set.reps[0]
}

// p2cTick drives candidate selection without per-session rng state (scatter
// goroutines are concurrent; math/rand.Rand is not).
var p2cTick atomic.Uint64

// pick selects a read replica: power-of-two-choices by in-flight depth among
// the live replicas not yet tried, or -1 when none remain.
func (set *ReplicaSet) pick(tried []bool) int {
	var buf [8]int
	cands := buf[:0]
	for i, rep := range set.reps {
		if !tried[i] && rep.live() {
			cands = append(cands, i)
		}
	}
	switch len(cands) {
	case 0:
		return -1
	case 1:
		return cands[0]
	}
	t := p2cTick.Add(1)
	a := cands[int(t%uint64(len(cands)))]
	b := cands[int((t+1)%uint64(len(cands)))]
	if set.reps[b].inflight.Load() < set.reps[a].inflight.Load() {
		return b
	}
	return a
}

// anchorLocked re-anchors the harvest source onto st (a leadership change:
// the previous primary died); callers hold wmu. The new primary has applied
// every logged write already, so harvesting resumes from its current epoch.
func (set *ReplicaSet) anchorLocked(st *Store) {
	if set.srcStore == st {
		return
	}
	set.srcStore = st
	set.srcEpoch = st.Epoch()
}

// harvestLocked appends the primary store's seal/tombstone entries published
// since the last harvest to the set log; callers hold wmu. A cut in the
// store's log (rebase, layout reset) resets the set log and takes a sequence
// of its own, so every replica that did not apply the cut — even one dead
// with no write after it — fully resyncs.
func (set *ReplicaSet) harvestLocked(st *Store) {
	entries, ok := st.LineageSince(set.srcEpoch)
	if !ok {
		set.log = nil
		set.logSeq++
		set.logFloor = set.logSeq
		set.srcEpoch = st.Epoch()
		return
	}
	for _, e := range entries {
		set.logSeq++
		if len(set.log) >= setLogCap {
			set.logFloor = set.log[0].seq
			n := copy(set.log, set.log[1:])
			set.log = set.log[:n]
		}
		set.log = append(set.log, setLogEntry{seq: set.logSeq, kind: e.kind, segs: e.segs, tomb: e.tomb})
		set.srcEpoch = e.epoch
	}
}

// apply runs one mutation against the set: primary first (its result is the
// caller's), then every live follower in the same order. A follower that
// fails a write the primary accepted has diverged and is dropped from
// rotation (catch-up revives it); a write the primary rejected is still
// offered to followers — rejections are deterministic, and any side effects
// (a delete seals the pending delta before rejecting) must converge too.
func (set *ReplicaSet) apply(fn func(st *Store) error) error {
	set.wmu.Lock()
	defer set.wmu.Unlock()
	p := set.primary()
	st := p.store()
	set.anchorLocked(st)
	err := fn(st)
	set.harvestLocked(st)
	if err == nil {
		p.lastApplied = set.logSeq
	}
	for _, rep := range set.reps {
		if rep == p || !rep.live() {
			continue
		}
		if ferr := fn(rep.store()); err == nil && ferr != nil {
			rep.failed.Store(true)
			rep.state.Store(int32(ReplicaDead))
			continue
		}
		rep.lastApplied = set.logSeq
	}
	return err
}

// NumReplicas returns the per-shard replica count.
func (r *Router) NumReplicas() int { return len(r.sets[0].reps) }

// Replica returns shard i's replica j, for health inspection and fault
// injection.
func (r *Router) Replica(shard, rep int) *Replica { return r.sets[shard].reps[rep] }

// KillReplica takes shard i's replica j out of rotation, failing its
// in-flight reads (they retry on a sibling) and excluding it from writes —
// the crash the chaos tests inject.
func (r *Router) KillReplica(shard, rep int) {
	re := r.sets[shard].reps[rep]
	re.failed.Store(true)
	re.state.Store(int32(ReplicaDead))
}

// ReviveReplica brings a dead replica back: under the set's write lock the
// primary's pending delta is flushed into the log, and the replica replays
// every entry past its last applied sequence — sealed segments shipped by
// reference and adopted idempotently, tombstones re-applied. When the log no
// longer covers the gap (trimmed, or cut by a rebase) the replica's server
// is rebuilt over a full Replicate() of the primary store. The replica is
// Lagging while it replays and Live after.
func (r *Router) ReviveReplica(shard, rep int) error {
	set := r.sets[shard]
	re := set.reps[rep]
	set.wmu.Lock()
	defer set.wmu.Unlock()
	p := set.primary()
	if p == re {
		return fmt.Errorf("serve: shard %d has no live replica to revive %d from", shard, rep)
	}
	re.state.Store(int32(ReplicaLagging))
	pst := p.store()
	set.anchorLocked(pst)
	if err := pst.Flush(); err != nil {
		re.state.Store(int32(ReplicaDead))
		return err
	}
	set.harvestLocked(pst)
	p.lastApplied = set.logSeq

	if re.lastApplied < set.logFloor {
		// The log no longer reaches back far enough: full resync.
		st, err := pst.Replicate()
		if err != nil {
			re.state.Store(int32(ReplicaDead))
			return err
		}
		srv, err := newServer(st, r.cfg)
		if err != nil {
			re.state.Store(int32(ReplicaDead))
			return err
		}
		re.srv.Store(srv)
		r.catchUps.Add(1)
	} else {
		// The replica's unsealed delta holds writes the primary has since
		// sealed; the shipped segments re-deliver every one of them.
		rst := re.store()
		rst.DiscardDelta()
		for _, e := range set.log {
			if e.seq <= re.lastApplied {
				continue
			}
			switch e.kind {
			case viewSeal:
				if err := rst.AdoptSegments(e.segs); err != nil {
					re.state.Store(int32(ReplicaDead))
					return err
				}
				r.catchUpSegs.Add(uint64(len(e.segs)))
				for _, seg := range e.segs {
					r.catchUpBytes.Add(uint64(seg.ShipBytes()))
				}
			case viewTomb:
				if err := rst.AdoptTombstone(e.tomb); err != nil {
					re.state.Store(int32(ReplicaDead))
					return err
				}
			}
		}
		rst.AdvanceNextDoc(pst.NextDocID())
		r.catchUps.Add(1)
	}
	re.lastApplied = set.logSeq
	re.failed.Store(false)
	re.state.Store(int32(ReplicaLive))
	return nil
}
