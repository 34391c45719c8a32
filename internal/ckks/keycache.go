package ckks

import (
	"container/list"
	"context"
	"sort"
	"sync"

	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// KeyManager is the evaluator's one source of switching keys. It comes in
// two shapes:
//
//	generating  NewKeyManager: keys are generated from the secret key on
//	            first use, and a byte budget demotes and evicts cold ones
//	closed      NewClosedKeyManager: a fixed set generated up front; an
//	            absent key is ErrMissingKey, never generated
//
// A generating store makes switching-key memory a budgeted resource
// instead of an O(keys × Dnum × basis) wall. Keys live in one of three
// states:
//
//	full        B and A resident — dense kernels, fastest
//	compressed  only B resident, A as per-digit seeds (~2x smaller) —
//	            the keyswitch regenerates A rows inside the fused dispatch
//	cold        nothing resident — regenerated from the secret key on
//	            demand (bit-identical, because generation is per-key
//	            seed-derived and order-independent)
//
// Acquire pins a key for the duration of one keyswitch (or one plan, via
// Pin); pinned keys are never demoted or evicted, so the fused dispatch
// can read key rows without holding any lock. The byte budget is soft:
// eviction only considers unpinned keys, so a plan that pins more than
// the budget overshoots rather than deadlocks. An unbounded store (budget
// <= 0, every closed store) never demotes anything, so it keeps no pins.
type KeyManager struct {
	mu   sync.Mutex
	cond *sync.Cond

	params *Parameters
	kg     *KeyGenerator // nil: a closed store
	sk     *SecretKey

	budget   int64 // bytes; <= 0 means unlimited
	resident int64 // bytes currently held by full+compressed entries

	entries map[uint64]*keyEntry
	lru     *list.List // of *keyEntry; front = most recently used

	stats KeyCacheStats
}

// keyEntry tracks one switching key's cache state.
type keyEntry struct {
	id   uint64
	swk  *SwitchingKey // nil = cold
	pins int
	// generating marks an in-flight (unlocked) generation or A
	// materialization; waiters block on the manager's cond and the
	// eviction scan skips the entry.
	generating bool
	elem       *list.Element // LRU position; nil while cold
}

// KeyCacheStats are the manager's cumulative counters plus the current
// and peak resident footprint. Hits/Misses count Acquire calls that
// found/lacked resident key material; KeyGens counts on-demand
// generations from the secret key (a closed store's preloaded keys are
// not counted); ARegens counts A-half materializations from seed;
// Demotions counts full→compressed transitions; Evictions counts
// compressed→cold transitions.
type KeyCacheStats struct {
	Hits, Misses      int64
	KeyGens, ARegens  int64
	Demotions         int64
	Evictions         int64
	ResidentBytes     int64
	PeakResidentBytes int64
	BudgetBytes       int64
}

// NewKeyManager builds a manager that generates keys lazily from sk.
// budgetBytes <= 0 disables eviction (keys stay resident once generated).
func NewKeyManager(params *Parameters, kg *KeyGenerator, sk *SecretKey, budgetBytes int64) *KeyManager {
	km := &KeyManager{
		params:  params,
		kg:      kg,
		sk:      sk,
		budget:  budgetBytes,
		entries: map[uint64]*keyEntry{},
		lru:     list.New(),
	}
	km.cond = sync.NewCond(&km.mu)
	return km
}

// NewClosedKeyManager builds the closed store: the relinearization key
// and the Galois keys for the given slot rotations and, optionally,
// conjugation, generated now and resident for good. Each distinct Galois
// element is generated once, in ascending order; keygen is per-key
// seed-derived, so the bits match a generating store's for the same ids.
// Acquire of any other id fails with ErrMissingKey.
func NewClosedKeyManager(params *Parameters, kg *KeyGenerator, sk *SecretKey, rotations []int, conjugate bool) *KeyManager {
	n := params.N()
	want := map[uint64]bool{RelinKeyID: true}
	for _, r := range rotations {
		want[ring.GaloisElementForRotation(r, n)] = true
	}
	if conjugate {
		want[ring.GaloisElementForConjugation(n)] = true
	}
	ids := make([]uint64, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	km := NewKeyManager(params, nil, nil, 0)
	for _, id := range ids {
		swk := generateKey(kg, sk, id)
		e := &keyEntry{id: id, swk: swk}
		km.entries[id] = e
		km.touchLocked(e)
		km.resident += swk.ResidentBytes()
	}
	km.stats.PeakResidentBytes = km.resident
	return km
}

// Has reports whether Acquire can serve id: always for a generating
// store, only for a preloaded key of a closed one.
func (km *KeyManager) Has(id uint64) bool {
	if km.kg != nil {
		return true
	}
	km.mu.Lock()
	defer km.mu.Unlock()
	return km.entries[id] != nil
}

// Stats returns a snapshot of the manager's counters.
func (km *KeyManager) Stats() KeyCacheStats {
	km.mu.Lock()
	defer km.mu.Unlock()
	s := km.stats
	s.ResidentBytes = km.resident
	s.BudgetBytes = km.budget
	return s
}

// generateKey builds the key for id from the secret key — RelinKeyID is
// the relinearization key, everything else a Galois key for that element.
func generateKey(kg *KeyGenerator, sk *SecretKey, id uint64) *SwitchingKey {
	if id == RelinKeyID {
		return kg.GenRelinKey(sk)
	}
	return kg.GenGaloisKey(sk, id)
}

// aBytes is the cost of materializing the key's dropped A halves.
func aBytes(swk *SwitchingKey) int64 {
	var n int64
	for j, a := range swk.A {
		if a == nil {
			n += polyBytes(swk.B[j])
		}
	}
	return n
}

// materializeA rebuilds the dropped A halves from their seeds, row by row
// under a fault-reporting dispatch: a dropped engine task (chaos
// injection, lost accelerator job) surfaces as ErrEngineFault instead of
// silently corrupt key material, so op-level retry regenerates cleanly.
// The dispatch error keeps its own class — a canceled ctx must surface
// as ErrCanceled, never be laundered into an engine fault (retry rungs
// treat cancellation as terminal and faults as retryable).
// On error the key is restored to fully-compressed form.
func materializeA(ctx context.Context, rctx *ring.Context, swk *SwitchingKey) error {
	for j := range swk.A {
		if swk.A[j] != nil {
			continue
		}
		a := ring.NewPoly(rctx, swk.B[j].Moduli)
		a.IsNTT = true
		seed := swk.ASeeds[j]
		if err := engine.DispatchCtx(ctx, len(a.Moduli), rctx.N, func(i int) {
			ring.UniformRowFromSeed(a.Coeffs[i], a.Moduli[i], seed)
		}); err != nil {
			swk.Compress()
			return fherr.Wrap(err, "ckks: key A-regeneration digit %d", j)
		}
		swk.A[j] = a
	}
	return nil
}

// touchLocked moves (or inserts) the entry at the LRU front.
func (km *KeyManager) touchLocked(e *keyEntry) {
	if e.elem != nil {
		km.lru.MoveToFront(e.elem)
	} else {
		e.elem = km.lru.PushFront(e)
	}
}

// fitsALocked reports whether materializing the key's A halves can fit
// the budget, counting unpinned resident entries as reclaimable.
func (km *KeyManager) fitsALocked(e *keyEntry, need int64) bool {
	if km.budget <= 0 {
		return true
	}
	if km.resident+need <= km.budget {
		return true
	}
	var reclaim int64
	for el := km.lru.Back(); el != nil; el = el.Prev() {
		o := el.Value.(*keyEntry)
		if o == e || o.pins > 0 || o.generating || o.swk == nil {
			continue
		}
		reclaim += o.swk.ResidentBytes()
	}
	return km.resident-reclaim+need <= km.budget
}

// enforceLocked demotes and evicts unpinned keys, coldest first, until
// the resident footprint fits the budget: first full→compressed (drop A,
// keep B), then compressed→cold (drop B too — regenerable from sk).
func (km *KeyManager) enforceLocked() {
	if km.budget <= 0 {
		return
	}
	for e := km.lru.Back(); e != nil && km.resident > km.budget; {
		prev := e.Prev()
		ent := e.Value.(*keyEntry)
		if ent.pins == 0 && !ent.generating && ent.swk != nil && !ent.swk.Compressed() {
			before := ent.swk.ResidentBytes()
			ent.swk.Compress()
			km.resident -= before - ent.swk.ResidentBytes()
			km.stats.Demotions++
		}
		e = prev
	}
	for e := km.lru.Back(); e != nil && km.resident > km.budget; {
		prev := e.Prev()
		ent := e.Value.(*keyEntry)
		if ent.pins == 0 && !ent.generating {
			km.resident -= ent.swk.ResidentBytes()
			ent.swk = nil
			km.lru.Remove(e)
			ent.elem = nil
			km.stats.Evictions++
		}
		e = prev
	}
}

// Acquire returns the switching key for id, pinned against demotion and
// eviction until release is called. Cold or absent keys are generated
// from the secret key (concurrent acquirers of the same id wait rather
// than duplicating the work); resident-but-compressed keys are promoted
// back to full form when the budget allows, otherwise returned compressed
// (the keyswitch then regenerates A rows in-dispatch — bit-identical
// either way). ctx (nil allowed) bounds the A-half materialization: a
// canceled context surfaces as ErrCanceled with the key left in its
// consistent compressed state. op names the caller for error context.
// A closed store (or a nil one) refuses an absent id with ErrMissingKey.
func (km *KeyManager) Acquire(ctx context.Context, op string, id uint64) (*SwitchingKey, func(), error) {
	if km == nil {
		return nil, nil, fherr.Wrap(fherr.ErrMissingKey, "ckks: %s: no key store", op)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, fherr.Wrap(fherr.ErrCanceled, "ckks: %s: key %d (%v)", op, id, err)
		}
	}
	km.mu.Lock()
	var e *keyEntry
	for {
		e = km.entries[id]
		if e == nil {
			if km.kg == nil {
				km.mu.Unlock()
				if id == RelinKeyID {
					return nil, nil, fherr.Wrap(fherr.ErrMissingKey, "ckks: %s: no relinearization key", op)
				}
				return nil, nil, fherr.Wrap(fherr.ErrMissingKey, "ckks: %s: no Galois key for element %d", op, id)
			}
			e = &keyEntry{id: id}
			km.entries[id] = e
		}
		if e.generating {
			km.cond.Wait()
			continue
		}
		if e.swk == nil {
			km.stats.Misses++
			e.generating = true
			km.mu.Unlock()
			swk := generateKey(km.kg, km.sk, id)
			km.mu.Lock()
			e.generating = false
			e.swk = swk
			km.resident += swk.ResidentBytes()
			km.stats.KeyGens++
			km.touchLocked(e)
			km.cond.Broadcast()
			break
		}
		km.stats.Hits++
		km.touchLocked(e)
		if need := aBytes(e.swk); need > 0 && e.pins == 0 && km.fitsALocked(e, need) {
			// Promote to full form for repeated use. Safe to mutate: the
			// entry is unpinned and the generating flag holds off every
			// other acquirer until the rows are in place.
			e.generating = true
			km.mu.Unlock()
			err := materializeA(ctx, km.params.Ctx, e.swk)
			km.mu.Lock()
			e.generating = false
			km.cond.Broadcast()
			if err != nil {
				km.mu.Unlock()
				return nil, nil, fherr.Wrap(err, "ckks: %s: key %d", op, id)
			}
			km.resident += need
			km.stats.ARegens++
		}
		break
	}
	if km.resident > km.stats.PeakResidentBytes {
		km.stats.PeakResidentBytes = km.resident
	}
	if km.budget <= 0 {
		// Nothing is ever demoted or evicted: no pin to keep, no release
		// closure to allocate.
		km.mu.Unlock()
		return e.swk, noopRelease, nil
	}
	e.pins++
	km.enforceLocked()
	km.mu.Unlock()
	released := false
	return e.swk, func() {
		km.mu.Lock()
		if !released {
			released = true
			e.pins--
			// A plan that pinned past the budget overshot on purpose;
			// reclaim the excess as soon as the pins come off.
			km.enforceLocked()
		}
		km.mu.Unlock()
	}, nil
}

// noopRelease is the release an unbounded store hands out.
func noopRelease() {}

// Pin acquires every id in els and holds the pins until the returned
// release runs — the plan-wide form of Acquire, used by BSGS transforms
// and pipeline stages to declare their whole key demand up front so the
// working set streams in once and stays resident across the plan.
func (km *KeyManager) Pin(ctx context.Context, op string, els []uint64) (func(), error) {
	if km == nil || km.budget <= 0 {
		// An unbounded store keeps no pins: pinning only checks that every
		// key can be served (and generates it if need be).
		for _, id := range els {
			if _, _, err := km.Acquire(ctx, op, id); err != nil {
				return nil, err
			}
		}
		return noopRelease, nil
	}
	releases := make([]func(), 0, len(els))
	releaseAll := func() {
		for _, r := range releases {
			r()
		}
	}
	for _, id := range els {
		_, rel, err := km.Acquire(ctx, op, id)
		if err != nil {
			releaseAll()
			return nil, err
		}
		releases = append(releases, rel)
	}
	return releaseAll, nil
}
