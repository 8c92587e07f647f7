// Package exmem implements the EX-MEM reference scheduler of the paper's
// evaluation: an exhaustive search over all joint per-segment
// configurations with memoization.
//
// EX-MEM explores every joint assignment of operating points (or
// suspension) to the alive jobs; a segment always ends when its shortest
// running job finishes ("cuts the segment on the shortest job"), after
// which the search recurses on the reduced state. The best energy per
// state — the multiset of (application, remaining ratio, slack) plus the
// elapsed scope — is memoized. Within this cut-at-completion class the
// result is the exact optimum, which is what Table IV and Fig. 3
// normalize against.
//
// Two accelerations are layered on top, both exactness-preserving and
// both optional:
//
//   - admissible lower bounds (each job's cheapest deadline-feasible
//     remaining energy, ignoring resource contention) enable
//     branch-and-bound pruning; memo entries distinguish exact optima
//     from lower-bound certificates so pruned results are never reused
//     as if they were exact;
//   - an incumbent seeded from MMKP-MDF (whose schedules lie inside
//     EX-MEM's search class) provides the initial upper bound.
//
// Options.PureExhaustive disables both, reproducing the paper's plain
// memoized search; tests cross-check that both modes return identical
// optima.
package exmem

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
)

// ErrBudget is returned when the search exceeds its node budget; the
// evaluation harness reports such cases as timeouts rather than
// infeasible.
var ErrBudget = errors.New("exmem: node budget exceeded")

// ErrNoImprovement is returned by ScheduleBudgeted when the search
// proves no schedule strictly cheaper than the incumbent exists (or the
// problem is infeasible outright): the incumbent is already optimal
// within EX-MEM's search class.
var ErrNoImprovement = errors.New("exmem: no schedule beats the incumbent")

// DefaultNodeLimit bounds the number of search nodes (state expansions
// plus enumerated joint assignments) per scheduling call.
const DefaultNodeLimit = 50_000_000

// Options tunes the search.
type Options struct {
	// NodeLimit caps search effort; 0 means DefaultNodeLimit.
	NodeLimit int64
	// PureExhaustive disables branch-and-bound pruning and incumbent
	// seeding, matching the paper's memoization-only description.
	PureExhaustive bool
}

// Stats reports effort counters of the last Schedule call.
type Stats struct {
	// Nodes counts state expansions plus enumerated assignments.
	Nodes int64
	// MemoHits counts memo lookups that short-circuited a subtree.
	MemoHits int64
	// MemoEntries is the final memo table size.
	MemoEntries int
}

// Scheduler is the EX-MEM scheduler. It keeps its stats and search
// buffers between calls, so give each goroutine its own. A call that
// overlaps another still returns the right schedule: it searches in
// fresh buffers and leaves LastStats to the call that holds them.
type Scheduler struct {
	opt   Options
	stats Stats
	// seed computes the MMKP-MDF incumbent. Holding one instance lets
	// repeated activations reuse its scratch buffers.
	seed *core.Scheduler
	// mu guards stats and buf, the search scratch, which is kept
	// between calls for the same reason. Calls take it with TryLock: a
	// serialised caller always wins and reuses buf; a concurrent caller
	// does not block.
	mu  sync.Mutex
	buf buffers
}

// New returns an EX-MEM scheduler with default options.
func New() *Scheduler { return NewWithOptions(Options{}) }

// NewWithOptions returns an EX-MEM scheduler with explicit options.
func NewWithOptions(opt Options) *Scheduler {
	return &Scheduler{opt: opt, seed: core.New()}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "EX-MEM" }

// LastStats returns effort counters of the most recent Schedule call.
func (s *Scheduler) LastStats() Stats { return s.stats }

// jobMeta is per-job immutable search data.
type jobMeta struct {
	j       *job.Job
	tableID int
	fastest float64
	// byTime is the table's points sorted by time, the order
	// relaxedEnergy scans them in.
	byTime []timeEnergy
}

// timeEnergy is the part of an operating point the lower bound reads.
type timeEnergy struct{ time, energy float64 }

// memoEntry caches a solved state. When exact is true, val is the true
// optimal energy-to-go and choice the optimal first assignment (aligned
// with the state's canonical job order, -1 = suspended). Otherwise val is
// a proven lower bound ("no schedule cheaper than val exists").
type memoEntry struct {
	val    float64
	exact  bool
	choice []int16
}

type solver struct {
	metas []jobMeta
	memo  map[string]memoEntry
	limit int64
	nodes int64
	hits  int64
	pure  bool
	*buffers
}

// buffers is the solver's scratch memory.
//
// The first five fields are stack arenas. solve takes each node's
// successor states (alive, rho), their first-segment assignments
// (choices), the children themselves (kids) and their visit order
// (order) from the arenas' tops, and truncates the arenas back to its
// entry marks when it returns. A recursive solve only writes above its
// parent's top, so every slice the parent holds stays intact; a slice
// taken before an arena grew keeps the old backing array, which nothing
// writes any more. Arena memory is reused as soon as solve returns, so
// anything that outlives the call (a memo entry's choice) is copied out.
//
// The next four are flat scratch for steps that never recurse into
// solve, and curves holds the call's per-table lower-bound data.
type buffers struct {
	alive   []int
	rho     []float64
	choices []int16
	kids    []child
	order   []rank

	key   []byte         // memo-key encode buffer
	pairs []statePair    // canonicalize scratch
	pick  []int16        // enumerate's assignment under construction
	free  platform.Alloc // enumerate's remaining capacity

	curves []timeEnergy // backing store of every jobMeta.byTime
}

// arenaMarks records the arenas' tops; alive and rho always share one.
type arenaMarks struct{ states, choices, kids, order int }

func (b *buffers) mark() arenaMarks {
	return arenaMarks{len(b.alive), len(b.choices), len(b.kids), len(b.order)}
}

// release truncates the arenas back to m.
func (b *buffers) release(m arenaMarks) {
	b.alive = b.alive[:m.states]
	b.rho = b.rho[:m.states]
	b.choices = b.choices[:m.choices]
	b.kids = b.kids[:m.kids]
	b.order = b.order[:m.order]
}

// state is a search node: alive job indices (into metas) in canonical
// order, their remaining ratios, and the current time.
type state struct {
	alive []int
	rho   []float64
	t     float64
}

var errBudgetPanic = errors.New("exmem: internal budget")

// newSolver builds a solver and canonical root state for (jobs, plat, t)
// on buf.
func (s *Scheduler) newSolver(jobs job.Set, plat platform.Platform, t float64, pure bool, buf *buffers) (*solver, state) {
	sol := &solver{
		memo:    make(map[string]memoEntry),
		limit:   s.opt.NodeLimit,
		pure:    pure,
		buffers: buf,
	}
	if sol.limit <= 0 {
		sol.limit = DefaultNodeLimit
	}
	sol.release(arenaMarks{})
	sol.pick = slices.Grow(sol.pick[:0], len(jobs))[:len(jobs)]
	sol.free = append(sol.free[:0], plat.Capacity()...)
	// Size the curve store up front so the byTime slices taken below
	// all share one backing array.
	points := 0
	for _, j := range jobs {
		points += len(j.Table.Points)
	}
	sol.curves = slices.Grow(sol.curves[:0], points)
	tables := make(map[*opset.Table]jobMeta)
	for _, j := range jobs {
		meta, ok := tables[j.Table]
		if !ok {
			lo := len(sol.curves)
			for _, p := range j.Table.Points {
				sol.curves = append(sol.curves, timeEnergy{p.Time, p.Energy})
			}
			meta = jobMeta{tableID: len(tables), fastest: j.Table.FastestTime(), byTime: sol.curves[lo:]}
			slices.SortFunc(meta.byTime, func(a, b timeEnergy) int { return cmp.Compare(a.time, b.time) })
			tables[j.Table] = meta
		}
		meta.j = j
		sol.metas = append(sol.metas, meta)
	}
	root := state{t: t}
	for i := range sol.metas {
		root.alive = append(root.alive, i)
		root.rho = append(root.rho, sol.metas[i].j.Remaining)
	}
	sol.canonicalize(&root)
	return sol, root
}

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(jobs job.Set, plat platform.Platform, t float64) (*schedule.Schedule, error) {
	return s.search(jobs, plat, t, s.opt.PureExhaustive, func(sol *solver, root state) (*schedule.Schedule, error) {
		ub := math.Inf(1)
		if !sol.pure {
			// Seed the incumbent with MMKP-MDF: its schedules reconfigure
			// only at completions, so they lie inside EX-MEM's class and
			// their energy upper-bounds the optimum.
			if s.seed == nil {
				s.seed = core.New()
			}
			if mk, err := s.seed.Schedule(jobs, plat, t); err == nil {
				ub = mk.Energy(jobs) + 1e-6
			}
		}
		val, exact := sol.solve(root, ub)
		if math.IsInf(val, 1) {
			return nil, sched.ErrInfeasible
		}
		if !exact {
			// Only possible when the seeded bound was itself unbeatable,
			// which contradicts seeding with a valid member of the class;
			// defensively re-run unseeded.
			val, exact = sol.solve(root, math.Inf(1))
			if !exact || math.IsInf(val, 1) {
				return nil, sched.ErrInfeasible
			}
		}
		return sol.reconstruct(root)
	})
}

// ScheduleBudgeted searches for a schedule strictly cheaper than the
// incumbent energy, under the configured node budget. It is the anytime
// refinement entry point: the incumbent (typically the MMKP-MDF
// schedule already running) caps the search from the start, so the
// solver only explores subtrees that could still beat it and proves
// either a strictly better exact schedule or that none exists.
//
// Outcomes: a schedule with Energy < incumbent (exact within EX-MEM's
// cut-at-completion class), ErrNoImprovement when the incumbent is
// already optimal (or the problem infeasible), or ErrBudget when the
// node budget ran out first — the caller keeps the incumbent either
// way. Branch-and-bound is always enabled here regardless of
// Options.PureExhaustive: the incumbent bound is the whole point.
func (s *Scheduler) ScheduleBudgeted(jobs job.Set, plat platform.Platform, t, incumbent float64) (*schedule.Schedule, error) {
	return s.search(jobs, plat, t, false, func(sol *solver, root state) (*schedule.Schedule, error) {
		val, exact := sol.solve(root, incumbent)
		if !exact || math.IsInf(val, 1) || val >= incumbent-1e-12 {
			return nil, ErrNoImprovement
		}
		return sol.reconstruct(root)
	})
}

// search validates the jobs, builds a solver for them and runs body on
// it. It records the call's stats (when it holds the buffers), turns a
// node-budget panic into ErrBudget and normalizes the schedule body
// returns.
func (s *Scheduler) search(jobs job.Set, plat platform.Platform, t float64, pure bool,
	body func(sol *solver, root state) (*schedule.Schedule, error)) (k *schedule.Schedule, err error) {
	if err := jobs.Validate(t); err != nil {
		return nil, err
	}
	buf, own := &s.buf, s.mu.TryLock()
	if !own {
		buf = new(buffers)
	}
	sol, root := s.newSolver(jobs, plat, t, pure, buf)

	defer func() {
		if own {
			s.stats = Stats{Nodes: sol.nodes, MemoHits: sol.hits, MemoEntries: len(sol.memo)}
			s.mu.Unlock()
		}
		if r := recover(); r != nil {
			if r == errBudgetPanic { //nolint:errorlint // sentinel identity
				k, err = nil, ErrBudget
				return
			}
			panic(r)
		}
	}()

	k, err = body(sol, root)
	if err != nil {
		return nil, err
	}
	k.Normalize()
	return k, nil
}

// statePair is the canonicalize scratch element.
type statePair struct {
	idx int
	rho float64
}

// canonicalize sorts the state's jobs by (tableID, rho, slack, jobID) so
// that symmetric jobs collapse onto one memo key. The sort key is a
// total order (job IDs are unique), so an unstable sort is fine.
func (sol *solver) canonicalize(st *state) {
	if cap(sol.pairs) < len(st.alive) {
		sol.pairs = make([]statePair, len(st.alive))
	}
	ps := sol.pairs[:len(st.alive)]
	for i := range st.alive {
		ps[i] = statePair{st.alive[i], st.rho[i]}
	}
	slices.SortFunc(ps, func(a, b statePair) int {
		ma, mb := sol.metas[a.idx], sol.metas[b.idx]
		if ma.tableID != mb.tableID {
			return ma.tableID - mb.tableID
		}
		if a.rho != b.rho {
			if a.rho < b.rho {
				return -1
			}
			return 1
		}
		if ma.j.Deadline != mb.j.Deadline {
			if ma.j.Deadline < mb.j.Deadline {
				return -1
			}
			return 1
		}
		return ma.j.ID - mb.j.ID
	})
	for i := range ps {
		st.alive[i] = ps[i].idx
		st.rho[i] = ps[i].rho
	}
}

// keyBytes encodes the canonical state into the solver's reusable
// scratch buffer. Remaining ratios and slacks are quantized to 1e-9 so
// that arithmetic noise between equivalent paths still hits the memo.
// Absolute time is excluded: energy-to-go is invariant under time shifts
// once slacks are fixed.
//
// The returned slice aliases sol.key and is invalidated by the next
// keyBytes call. Memo lookups index the map with string(b) directly —
// the compiler elides that conversion — so only the first store of each
// entry materialises a key string.
func (sol *solver) keyBytes(st *state) []byte {
	need := len(st.alive) * 17
	if cap(sol.key) < need {
		sol.key = make([]byte, need)
	}
	b := sol.key[:0]
	var tmp [8]byte
	for i, idx := range st.alive {
		b = append(b, byte(sol.metas[idx].tableID))
		binary.BigEndian.PutUint64(tmp[:], uint64(int64(math.Round(st.rho[i]*1e9))))
		b = append(b, tmp[:]...)
		slack := sol.metas[idx].j.Deadline - st.t
		binary.BigEndian.PutUint64(tmp[:], uint64(int64(math.Round(slack*1e9))))
		b = append(b, tmp[:]...)
	}
	sol.key = b[:0]
	return b
}

// setMemo stores an entry for the state, re-encoding the key (the key
// buffer may have been clobbered by recursive solves since the lookup).
func (sol *solver) setMemo(st *state, e memoEntry) {
	sol.memo[string(sol.keyBytes(st))] = e
}

// lowerBound returns an admissible energy-to-go bound: the sum over jobs
// of the cheapest point that could still meet the deadline in isolation.
// It returns +Inf when some job is already doomed.
func (sol *solver) lowerBound(st *state) float64 {
	lb := 0.0
	for i, idx := range st.alive {
		meta := sol.metas[idx]
		slack := meta.j.Deadline - st.t
		if meta.fastest*st.rho[i] > slack+schedule.Eps {
			return math.Inf(1)
		}
		lb += relaxedEnergy(meta.byTime, st.rho[i], slack)
	}
	return lb
}

// relaxedEnergy is the fractional-switching relaxation of one job's
// remaining energy: the cheapest convex mixture of operating points
// that finishes rho work within slack, ignoring resource contention.
// Mixtures matter for admissibility — a job whose cheap point is too
// slow on its own can still run it for part of the work and switch to a
// faster point, landing below every single feasible point's energy. The
// pre-relaxation bound (cheapest single feasible point) could therefore
// exceed the true optimum and prune optimal subtrees; with the search
// seeded at exactly the incumbent energy (ScheduleBudgeted's normal
// case) that pruned the root itself, masking real improvements.
// The LP optimum lies on a vertex mixing at most two points, so trying
// every feasible point and every slack-exhausting pair is exact.
//
// byTime must be sorted by time. A partner q slower than p, or too slow
// to finish rho within slack on its own (q.time ≥ slack/rho, so p's
// share f would be ≤ 0), never mixes, and with the points in time order
// the scan over partners stops at the first such q.
func relaxedEnergy(byTime []timeEnergy, rho, slack float64) float64 {
	best := math.Inf(1)
	perWork := slack / rho
	for i := range byTime {
		p := &byTime[i]
		if p.time*rho <= slack+schedule.Eps {
			if e := p.energy * rho; e < best {
				best = e
			}
			continue
		}
		// p alone misses the deadline; mix it with a faster point q,
		// sizing p's share f so the pair exactly exhausts the slack.
		for j := range byTime {
			q := &byTime[j]
			if q.time >= p.time || q.time >= perWork {
				break
			}
			f := (perWork - q.time) / (p.time - q.time)
			if f <= 0 || f >= 1 {
				continue
			}
			if e := rho * (f*p.energy + (1-f)*q.energy); e < best {
				best = e
			}
		}
	}
	return best
}

// child is one enumerated joint assignment expanded into the successor
// state. Its slices live in the solver's arenas.
type child struct {
	choice []int16
	segE   float64
	dt     float64
	next   state
	lb     float64
}

// solve returns the optimal energy-to-go of st if it is provably below
// ub (exact=true), or a lower-bound certificate (exact=false, val ≥ ub
// means "no schedule cheaper than val").
func (sol *solver) solve(st state, ub float64) (float64, bool) {
	if len(st.alive) == 0 {
		return 0, true
	}
	sol.nodes++
	if sol.nodes > sol.limit {
		panic(errBudgetPanic)
	}
	if e, ok := sol.memo[string(sol.keyBytes(&st))]; ok {
		if e.exact {
			sol.hits++
			return e.val, true
		}
		if e.val >= ub-1e-12 {
			sol.hits++
			return e.val, false
		}
	}
	lb := sol.lowerBound(&st)
	if math.IsInf(lb, 1) {
		sol.setMemo(&st, memoEntry{val: lb, exact: true})
		return lb, true
	}
	if !sol.pure && lb >= ub-1e-12 {
		sol.storeBound(&st, lb)
		return lb, false
	}
	top := sol.mark()
	defer sol.release(top)
	children := sol.enumerate(&st)
	if len(children) == 0 {
		sol.setMemo(&st, memoEntry{val: math.Inf(1), exact: true})
		return math.Inf(1), true
	}
	best := math.Inf(1)
	var bestChoice []int16
	for _, r := range sol.visitOrder(children, ub) {
		ch := &children[r.i]
		bound := ub
		if best < bound {
			bound = best
		}
		if !sol.pure && r.key >= bound-1e-12 {
			// Keys only grow along the order and the bound only
			// shrinks, so every later child would be pruned too.
			break
		}
		v, exact := sol.solve(ch.next, bound-ch.segE)
		total := ch.segE + v
		if exact && total < best {
			best = total
			bestChoice = ch.choice
		}
	}
	if sol.pure || best < ub-1e-12 {
		sol.setMemo(&st, memoEntry{val: best, exact: true, choice: slices.Clone(bestChoice)})
		return best, true
	}
	sol.storeBound(&st, ub)
	return ub, false
}

// rank is one child's place in the visit order.
type rank struct {
	key float64 // segE+lb: no schedule through the child costs less
	i   int32   // the child's enumeration index
}

// visitOrder returns the children's ranks, from the order arena, sorted
// by key with ties in enumeration order: the order a stable sort of the
// children themselves would give, without moving them. Unless the
// search is pure, it leaves out every child whose key already reaches
// ub, since solve would prune it against any bound it can reach.
func (sol *solver) visitOrder(children []child, ub float64) []rank {
	base := len(sol.order)
	for i := range children {
		key := children[i].segE + children[i].lb
		if !sol.pure && key >= ub-1e-12 {
			continue
		}
		sol.order = append(sol.order, rank{key, int32(i)})
	}
	order := sol.order[base:]
	slices.SortFunc(order, func(a, b rank) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return int(a.i - b.i)
	})
	return order
}

// storeBound records a lower-bound certificate, keeping the strongest.
// No recursion separates the guard lookup from the store, so one key
// encode serves both.
func (sol *solver) storeBound(st *state, val float64) {
	kb := sol.keyBytes(st)
	if e, ok := sol.memo[string(kb)]; ok && (e.exact || e.val >= val) {
		return
	}
	sol.memo[string(kb)] = memoEntry{val: val}
}

// enumerate lists all resource-feasible joint assignments of the alive
// jobs (operating point or suspension, not all suspended) whose successor
// state is not provably doomed. Twin jobs (same table, ratio, slack) are
// forced into non-decreasing point order to skip symmetric duplicates.
// The children are pushed onto the kids arena; the returned slice is
// the part this call pushed.
func (sol *solver) enumerate(st *state) []child {
	base := len(sol.kids)
	sol.assign(st, 0)
	return sol.kids[base:]
}

// assign chooses position i's point (or suspension) in sol.pick, given
// the capacity sol.free left by positions before it, and expands every
// complete assignment.
func (sol *solver) assign(st *state, i int) {
	if i == len(st.alive) {
		sol.expand(st, sol.pick)
		return
	}
	choice := sol.pick
	// Suspension first (twin ordering treats -1 as smallest).
	lo := int16(-1)
	if i > 0 && sol.twin(st, i-1, i) {
		lo = choice[i-1]
	}
	if lo <= -1 {
		choice[i] = -1
		sol.assign(st, i+1)
	}
	for pi, p := range sol.metas[st.alive[i]].j.Table.Points {
		if int16(pi) < lo {
			continue
		}
		if !p.Alloc.Fits(sol.free) {
			continue
		}
		sol.free.SubInPlace(p.Alloc)
		choice[i] = int16(pi)
		sol.assign(st, i+1)
		sol.free.AddInPlace(p.Alloc)
	}
}

// twin reports whether canonical positions a and b are interchangeable.
func (sol *solver) twin(st *state, a, b int) bool {
	ma, mb := sol.metas[st.alive[a]], sol.metas[st.alive[b]]
	return ma.tableID == mb.tableID &&
		st.rho[a] == st.rho[b] &&
		ma.j.Deadline == mb.j.Deadline
}

// expand turns one joint assignment into a child node on the kids
// arena, applying the admissible deadline prune on the successor state.
func (sol *solver) expand(st *state, choice []int16) {
	sol.nodes++
	if sol.nodes > sol.limit {
		panic(errBudgetPanic)
	}
	n := len(st.alive)
	// Segment length: first completion among running jobs.
	dt := math.Inf(1)
	for i := 0; i < n; i++ {
		if choice[i] < 0 {
			continue
		}
		p := sol.metas[st.alive[i]].j.Table.Points[choice[i]]
		if r := p.Time * st.rho[i]; r < dt {
			dt = r
		}
	}
	if math.IsInf(dt, 1) {
		return // all suspended
	}
	segE := 0.0
	next := state{t: st.t + dt}
	base := len(sol.alive)
	for i := 0; i < n; i++ {
		idx := st.alive[i]
		rho := st.rho[i]
		if choice[i] >= 0 {
			p := sol.metas[idx].j.Table.Points[choice[i]]
			segE += p.Energy * dt / p.Time
			rho -= dt / p.Time
		}
		if rho <= 1e-12 {
			// Finished within this segment; its deadline is respected by
			// construction only if t+dt ≤ δ.
			if next.t > sol.metas[idx].j.Deadline+schedule.Eps {
				sol.alive, sol.rho = sol.alive[:base], sol.rho[:base]
				return
			}
			continue
		}
		sol.alive = append(sol.alive, idx)
		sol.rho = append(sol.rho, rho)
	}
	top := len(sol.alive)
	next.alive, next.rho = sol.alive[base:top:top], sol.rho[base:top:top]
	sol.canonicalize(&next)
	lb := sol.lowerBound(&next)
	if math.IsInf(lb, 1) {
		sol.alive, sol.rho = sol.alive[:base], sol.rho[:base]
		return // a surviving job is doomed
	}
	cbase := len(sol.choices)
	sol.choices = append(sol.choices, choice...)
	sol.kids = append(sol.kids, child{
		choice: sol.choices[cbase:len(sol.choices):len(sol.choices)],
		segE:   segE,
		dt:     dt,
		next:   next,
		lb:     lb,
	})
}

// reconstruct replays the memoized optimal decisions from the root state
// into a concrete schedule. It only pushes onto the arenas, so each
// step's state stays valid while the next step expands it.
func (sol *solver) reconstruct(root state) (*schedule.Schedule, error) {
	k := &schedule.Schedule{}
	st := root
	for len(st.alive) > 0 {
		e, ok := sol.memo[string(sol.keyBytes(&st))]
		if !ok || !e.exact || e.choice == nil {
			return nil, fmt.Errorf("exmem: missing exact memo entry during reconstruction")
		}
		base := len(sol.kids)
		sol.expandChoice(&st, e.choice)
		if len(sol.kids) != base+1 {
			return nil, fmt.Errorf("exmem: stored choice no longer expands")
		}
		ch := sol.kids[base]
		seg := schedule.Segment{Start: st.t, End: st.t + ch.dt}
		for i, idx := range st.alive {
			if e.choice[i] < 0 {
				continue
			}
			seg.Placements = append(seg.Placements, schedule.Placement{
				JobID: sol.metas[idx].j.ID,
				Point: int(e.choice[i]),
			})
		}
		sort.Slice(seg.Placements, func(a, b int) bool {
			return seg.Placements[a].JobID < seg.Placements[b].JobID
		})
		if err := k.Append(seg); err != nil {
			return nil, err
		}
		st = ch.next
	}
	return k, nil
}

// expandChoice expands a specific stored assignment (bypassing node
// accounting so reconstruction cannot trip the budget).
func (sol *solver) expandChoice(st *state, choice []int16) {
	saved := sol.nodes
	sol.expand(st, choice)
	sol.nodes = saved
}
