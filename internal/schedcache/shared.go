package schedcache

// The shared tier: a fleet-wide, read-mostly second-level store behind
// the per-device LRU caches. The per-device cache stays the hot L1 —
// private, LRU-bounded, touched on every activation — while the shared
// tier holds one canonical entry per signature for the whole fleet, so
// a schedule solved once on any device (or precomputed offline by an
// exact solver) serves every device with the same platform.
//
// Determinism is preserved by construction rather than by locking
// discipline: Promote is a deterministic merge — the lowest-energy
// entry wins, ties broken by the canonical byte encoding of the entry —
// which is commutative, associative and idempotent, so the tier's final
// contents do not depend on the order devices raced their promotions
// in. Every lookup result is still re-validated against the concrete
// job set before reuse (the package invariant), so sharing never
// returns a schedule the solver would have been forbidden to return.
//
// Save/Load serialise the tier as canonical JSON sorted by signature:
// warming a fresh tier from a file and merging the same entries live
// produce byte-identical Save output, which is what the offline
// warm-cache workflow (rmserve -cache-warm, scripts/warm-cache.sh)
// leans on.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"adaptrm/internal/schedule"
)

// sharedEntry is one immutable canonical entry of the shared tier. The
// canonical form matches the L1 entry (segment times relative to the
// scheduling instant, placements over canonical job positions) plus the
// merge metadata: the energy of the schedule as solved and whether an
// exact solver produced it.
type sharedEntry struct {
	segments   []schedule.Segment
	assignment []int
	njobs      int
	energy     float64
	exact      bool
}

// better reports whether e should replace old under the deterministic
// merge order: strictly lower energy wins; at equal energy an exact
// entry beats a heuristic one; remaining ties break on the canonical
// byte encoding (smaller wins), giving a total order.
func (e *sharedEntry) better(old *sharedEntry) bool {
	if e.energy != old.energy {
		return e.energy < old.energy
	}
	if e.exact != old.exact {
		return e.exact
	}
	return string(e.encode(nil)) < string(old.encode(nil))
}

// encode appends the entry's canonical byte form (used only for merge
// tie-breaking; Save has its own JSON form).
func (e *sharedEntry) encode(b []byte) []byte {
	b = strconv.AppendInt(b, int64(e.njobs), 10)
	for _, a := range e.assignment {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(a), 10)
	}
	for _, seg := range e.segments {
		b = append(b, '|')
		b = strconv.AppendFloat(b, seg.Start, 'g', -1, 64)
		b = append(b, ';')
		b = strconv.AppendFloat(b, seg.End, 'g', -1, 64)
		for _, p := range seg.Placements {
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(p.JobID), 10)
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(p.Point), 10)
		}
	}
	return b
}

// SharedStats snapshots the tier-global counters. Hits/Misses count
// lookups that fell through the L1 caches; Promotions counts accepted
// merges (inserts and replacements), PromotionsDropped offers that lost
// the merge. Loaded counts entries accepted from Load.
type SharedStats struct {
	Entries, ExactEntries         int
	Hits, Misses                  int64
	Promotions, PromotionsDropped int64
	Loaded                        int64
}

// Shared is the fleet-wide second-level schedule store. All methods are
// goroutine-safe; lookups take a read lock and allocate nothing.
type Shared struct {
	mu      sync.RWMutex
	entries map[Signature]*sharedEntry

	hits, misses       atomic.Int64
	promos, promoDrops atomic.Int64
	loaded             atomic.Int64
}

// NewShared creates an empty shared tier.
func NewShared() *Shared {
	return &Shared{entries: make(map[Signature]*sharedEntry)}
}

// Len returns the number of entries in the tier.
func (s *Shared) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Stats snapshots the tier counters.
func (s *Shared) Stats() SharedStats {
	s.mu.RLock()
	exact := 0
	for _, e := range s.entries {
		if e.exact {
			exact++
		}
	}
	n := len(s.entries)
	s.mu.RUnlock()
	return SharedStats{
		Entries:           n,
		ExactEntries:      exact,
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Promotions:        s.promos.Load(),
		PromotionsDropped: s.promoDrops.Load(),
		Loaded:            s.loaded.Load(),
	}
}

// get returns the entry at sig, counting the outcome. The returned
// entry is immutable — promotions replace the pointer, never mutate —
// so callers may use it outside the lock. Zero allocations: the key is
// indexed via the compiler's byteslice-to-string map elision when
// called with Signature(scratch).
func (s *Shared) get(sig Signature) (*sharedEntry, bool) {
	s.mu.RLock()
	e, ok := s.entries[sig]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e, ok
}

// promote offers an entry for sig under the deterministic merge,
// reporting whether it was accepted (inserted or replaced the previous
// winner).
func (s *Shared) promote(sig Signature, e *sharedEntry) bool {
	s.mu.Lock()
	old, ok := s.entries[sig]
	accept := !ok || e.better(old)
	if accept {
		s.entries[sig] = e
	}
	s.mu.Unlock()
	if accept {
		s.promos.Add(1)
	} else {
		s.promoDrops.Add(1)
	}
	return accept
}

// probeBytes reports presence (and exactness) of the entry at the
// signature bytes without counting the probe as a lookup. The map index
// converts through Signature in place, so the compiler's
// byteslice-to-string elision keeps the probe allocation-free.
func (s *Shared) probeBytes(sig []byte) (exact, ok bool) {
	s.mu.RLock()
	e, ok := s.entries[Signature(sig)]
	s.mu.RUnlock()
	if !ok {
		return false, false
	}
	return e.exact, true
}

// ---- wire form ----

// sharedWireEntry is the JSON form of one entry in a warm-cache file.
// Segments use the schedule package's wire form, the same as manager
// snapshots, with placements over canonical job positions.
type sharedWireEntry struct {
	Sig        string             `json:"sig"`
	NJobs      int                `json:"njobs"`
	Energy     float64            `json:"energy"`
	Exact      bool               `json:"exact,omitempty"`
	Assignment []int              `json:"assignment,omitempty"`
	Segments   []schedule.Segment `json:"segments"`
}

type sharedWireFile struct {
	Version int               `json:"version"`
	Entries []sharedWireEntry `json:"entries"`
}

// Save writes the tier as canonical JSON, entries sorted by signature,
// so identical tier contents always serialise to identical bytes
// regardless of insertion order.
func (s *Shared) Save(w io.Writer) error {
	s.mu.RLock()
	sigs := make([]string, 0, len(s.entries))
	for sig := range s.entries {
		sigs = append(sigs, string(sig))
	}
	sort.Strings(sigs)
	out := sharedWireFile{Version: 1, Entries: make([]sharedWireEntry, 0, len(sigs))}
	for _, sig := range sigs {
		e := s.entries[Signature(sig)]
		out.Entries = append(out.Entries, sharedWireEntry{
			Sig:        sig,
			NJobs:      e.njobs,
			Energy:     e.energy,
			Exact:      e.exact,
			Assignment: e.assignment,
			Segments:   e.segments,
		})
	}
	s.mu.RUnlock()
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load merges a warm-cache file into the tier through the same
// deterministic merge as live promotions, so loading is idempotent and
// commutes with concurrent traffic. Malformed entries fail the load.
func (s *Shared) Load(r io.Reader) error {
	var in sharedWireFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("schedcache: warm file: %w", err)
	}
	if in.Version != 1 {
		return fmt.Errorf("schedcache: warm file version %d unsupported", in.Version)
	}
	for i, we := range in.Entries {
		if we.Sig == "" || we.NJobs <= 0 || len(we.Segments) == 0 {
			return fmt.Errorf("schedcache: warm file entry %d malformed", i)
		}
		if we.Assignment != nil && len(we.Assignment) != we.NJobs {
			return fmt.Errorf("schedcache: warm file entry %d: %d assignments for %d jobs",
				i, len(we.Assignment), we.NJobs)
		}
		for _, seg := range we.Segments {
			for _, p := range seg.Placements {
				if p.JobID < 0 || p.JobID >= we.NJobs {
					return fmt.Errorf("schedcache: warm file entry %d: canonical job %d outside [0,%d)",
						i, p.JobID, we.NJobs)
				}
			}
		}
		e := &sharedEntry{
			segments:   we.Segments,
			assignment: we.Assignment,
			njobs:      we.NJobs,
			energy:     we.Energy,
			exact:      we.Exact,
		}
		if s.promote(Signature(we.Sig), e) {
			s.loaded.Add(1)
		}
	}
	return nil
}
