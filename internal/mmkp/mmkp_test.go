package mmkp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallProblem() *Problem {
	// Two groups, capacity forces a trade-off.
	return &Problem{
		Capacity: []float64{4, 4},
		Groups: [][]Item{
			{
				{Value: 10, Weight: []float64{4, 0}},
				{Value: 6, Weight: []float64{1, 1}},
				{Value: 3, Weight: []float64{1, 0}},
			},
			{
				{Value: 9, Weight: []float64{1, 4}},
				{Value: 5, Weight: []float64{2, 1}},
				{Value: 2, Weight: []float64{0, 1}},
			},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := smallProblem().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		{},
		{Capacity: []float64{1}},
		{Capacity: []float64{1}, Groups: [][]Item{{}}},
		{Capacity: []float64{1}, Groups: [][]Item{{{Value: 1, Weight: []float64{1, 2}}}}},
		{Capacity: []float64{1}, Groups: [][]Item{{{Value: 1, Weight: []float64{-1}}}}},
		{Capacity: []float64{1}, Groups: [][]Item{{{Value: math.NaN(), Weight: []float64{1}}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad[%d] validated", i)
		}
	}
}

func TestFeasibleAndValue(t *testing.T) {
	p := smallProblem()
	if !p.Feasible(Choice{1, 1}) {
		t.Error("choice {1,1} should be feasible (3,2) ≤ (4,4)")
	}
	if p.Feasible(Choice{0, 0}) {
		t.Error("choice {0,0} uses (5,4), infeasible")
	}
	if p.Feasible(Choice{0}) {
		t.Error("wrong arity accepted")
	}
	if p.Feasible(Choice{9, 0}) {
		t.Error("bad index accepted")
	}
	if got := p.Value(Choice{0, 1}); got != 15 {
		t.Errorf("Value = %v", got)
	}
}

func TestSolveExactSmall(t *testing.T) {
	p := smallProblem()
	c := p.SolveExact()
	if c == nil {
		t.Fatal("exact found nothing")
	}
	if !p.Feasible(c) {
		t.Fatal("exact choice infeasible")
	}
	// Optimum: {0,2} = 10+2 = 12 using (4,1)? Check {1,0}: 6+9=15 with
	// weight (2,5) infeasible dim1=5>4. {0,1}: 15 with (6,1): dim0=6>4.
	// {1,0}: (2,5) no. {0,2}: (4,1) ok value 12. {1,1}: (3,2) value 11.
	// {2,0}: (2,4) value 12. So best is 12.
	if got := p.Value(c); got != 12 {
		t.Errorf("exact value = %v, want 12 (choice %v)", got, c)
	}
}

func TestSolveExactInfeasible(t *testing.T) {
	p := &Problem{
		Capacity: []float64{1},
		Groups: [][]Item{
			{{Value: 1, Weight: []float64{2}}},
		},
	}
	if c := p.SolveExact(); c != nil {
		t.Errorf("infeasible instance solved: %v", c)
	}
}

func TestSolveLR(t *testing.T) {
	p := smallProblem()
	res := p.SolveLR(100)
	if res.Lambda == nil || len(res.Lambda) != 2 {
		t.Fatalf("LR lambda = %v", res.Lambda)
	}
	for d, l := range res.Lambda {
		if l < 0 {
			t.Errorf("negative multiplier λ[%d]=%v", d, l)
		}
	}
	exact := p.Value(p.SolveExact())
	if res.UpperBound < exact-1e-6 {
		t.Errorf("dual bound %v below primal optimum %v", res.UpperBound, exact)
	}
	if res.Feasible && p.Value(res.Choice) > res.UpperBound+1e-6 {
		t.Error("primal exceeds dual bound")
	}
	// Degenerate calls.
	if r := p.SolveLR(0); r.Lambda != nil {
		t.Error("maxIter=0 should return zero result")
	}
	bad := &Problem{}
	if r := bad.SolveLR(10); r.Lambda != nil {
		t.Error("invalid problem should return zero result")
	}
}

// On an unconstrained instance LR multipliers must stay at zero and the
// relaxed choice must match per-group maxima.
func TestSolveLRUnconstrained(t *testing.T) {
	p := &Problem{
		Capacity: []float64{100, 100},
		Groups: [][]Item{
			{{Value: 1, Weight: []float64{1, 1}}, {Value: 5, Weight: []float64{2, 2}}},
			{{Value: 3, Weight: []float64{1, 0}}, {Value: 2, Weight: []float64{0, 1}}},
		},
	}
	res := p.SolveLR(100)
	if !res.Feasible {
		t.Fatal("unconstrained LR infeasible")
	}
	if got := p.Value(res.Choice); got != 8 {
		t.Errorf("LR choice value = %v, want 8", got)
	}
	for d, l := range res.Lambda {
		if l != 0 {
			t.Errorf("λ[%d] = %v, want 0", d, l)
		}
	}
}

// Property test: on random instances, exact ≥ any LR feasible choice,
// and the LR dual upper-bounds the exact optimum.
func TestSolverRelationsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := func() *Problem {
		groups := 1 + rng.Intn(3)
		dims := 1 + rng.Intn(2)
		p := &Problem{Capacity: make([]float64, dims)}
		for d := range p.Capacity {
			p.Capacity[d] = float64(2 + rng.Intn(6))
		}
		for g := 0; g < groups; g++ {
			n := 1 + rng.Intn(4)
			items := make([]Item, n)
			for i := range items {
				w := make([]float64, dims)
				for d := range w {
					w[d] = float64(rng.Intn(4))
				}
				items[i] = Item{Value: float64(rng.Intn(10)), Weight: w}
			}
			p.Groups = append(p.Groups, items)
		}
		return p
	}
	f := func() bool {
		p := gen()
		exact := p.SolveExact()
		lr := p.SolveLR(50)
		if exact == nil {
			// If exact says infeasible, no LR choice can be feasible
			// either (it would be a counterexample).
			return !lr.Feasible
		}
		if !p.Feasible(exact) {
			return false
		}
		ev := p.Value(exact)
		if lr.UpperBound < ev-1e-6 {
			return false
		}
		if lr.Feasible && p.Value(lr.Choice) > ev+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}
