package ckks

import (
	"container/list"
	"context"
	"sync"

	"bitpacker/internal/engine"
	"bitpacker/internal/fherr"
	"bitpacker/internal/ring"
)

// KeyManager makes switching-key memory a budgeted resource instead of an
// O(keys × Dnum × basis) wall. Keys live in one of three states:
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
// the budget overshoots rather than deadlocks.
type KeyManager struct {
	mu   sync.Mutex
	cond *sync.Cond

	params *Parameters
	kg     *KeyGenerator
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
// found/lacked resident key material; KeyGens counts full generations
// from the secret key; ARegens counts A-half materializations from seed;
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

// Stats returns a snapshot of the manager's counters.
func (km *KeyManager) Stats() KeyCacheStats {
	km.mu.Lock()
	defer km.mu.Unlock()
	s := km.stats
	s.ResidentBytes = km.resident
	s.BudgetBytes = km.budget
	return s
}

// generate builds the key for id from the secret key — RelinKeyID is the
// relinearization key, everything else a Galois key for that element.
func (km *KeyManager) generate(id uint64) *SwitchingKey {
	if id == RelinKeyID {
		return km.kg.GenRelinKey(km.sk)
	}
	return km.kg.GenGaloisKey(km.sk, id)
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
func (km *KeyManager) Acquire(ctx context.Context, op string, id uint64) (*SwitchingKey, func(), error) {
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
			swk := km.generate(id)
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
	e.pins++
	if km.resident > km.stats.PeakResidentBytes {
		km.stats.PeakResidentBytes = km.resident
	}
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

// Pin acquires every id in els and holds the pins until the returned
// release runs — the plan-wide form of Acquire, used by BSGS transforms
// and pipeline stages to declare their whole key demand up front so the
// working set streams in once and stays resident across the plan.
func (km *KeyManager) Pin(ctx context.Context, op string, els []uint64) (func(), error) {
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

// VerifyIntegrity recomputes the manager's accounting from first
// principles under the lock and reports the first inconsistency:
// resident bytes must equal the sum over resident entries, no entry may
// hold negative pins, and LRU membership must match residency exactly.
// It exists so concurrency tests (and debug endpoints) can assert the
// books balance after arbitrary pin/release/evict interleavings.
func (km *KeyManager) VerifyIntegrity() error {
	km.mu.Lock()
	defer km.mu.Unlock()
	// A generation or A-promotion in flight works on its key outside the
	// lock, with only the generating flag holding acquirers off: the
	// key's rows and the books disagree until it lands, so wait it out.
	generating := func() bool {
		for _, e := range km.entries {
			if e.generating {
				return true
			}
		}
		return false
	}
	for generating() {
		km.cond.Wait()
	}
	var sum int64
	inLRU := map[*keyEntry]bool{}
	for el := km.lru.Front(); el != nil; el = el.Next() {
		inLRU[el.Value.(*keyEntry)] = true
	}
	for id, e := range km.entries {
		if e.pins < 0 {
			return fherr.Wrap(fherr.ErrInvariant, "ckks: key %d has %d pins", id, e.pins)
		}
		if e.swk != nil {
			sum += e.swk.ResidentBytes()
			if e.elem == nil || !inLRU[e] {
				return fherr.Wrap(fherr.ErrInvariant, "ckks: resident key %d missing from LRU", id)
			}
		} else if e.elem != nil {
			return fherr.Wrap(fherr.ErrInvariant, "ckks: cold key %d still in LRU", id)
		}
	}
	if sum != km.resident {
		return fherr.Wrap(fherr.ErrInvariant,
			"ckks: resident accounting drift: tracked %d bytes, actual %d", km.resident, sum)
	}
	return nil
}
