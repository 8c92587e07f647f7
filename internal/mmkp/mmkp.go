// Package mmkp implements the multiple-choice multidimensional knapsack
// problem (MMKP) the paper's runtime managers reduce to: given groups of
// items (one operating point per item), pick exactly one item per group
// maximizing total value subject to multidimensional capacity
// constraints.
//
// Two solvers are provided:
//
//   - SolveExact: depth-first branch-and-bound, exact on the small
//     instances runtime management produces (≤ tens of items per group,
//     a handful of groups).
//   - SolveLR: Lagrangian relaxation with a subgradient method (bounded
//     iterations) after Wildermann et al.; it returns the multipliers
//     that the MMKP-LR scheduler uses to cost configurations.
package mmkp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Item is one choice within a group.
type Item struct {
	// Value is the profit of selecting the item (maximized).
	Value float64
	// Weight is the multidimensional resource demand.
	Weight []float64
}

// Problem is an MMKP instance. Exactly one item per group must be chosen.
type Problem struct {
	// Capacity is the per-dimension knapsack capacity.
	Capacity []float64
	// Groups holds the per-group item lists.
	Groups [][]Item
}

// Choice is a per-group selected item index.
type Choice []int

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if len(p.Capacity) == 0 {
		return errors.New("mmkp: empty capacity")
	}
	if len(p.Groups) == 0 {
		return errors.New("mmkp: no groups")
	}
	for g, items := range p.Groups {
		if len(items) == 0 {
			return fmt.Errorf("mmkp: group %d empty", g)
		}
		for i, it := range items {
			if len(it.Weight) != len(p.Capacity) {
				return fmt.Errorf("mmkp: group %d item %d: weight arity %d vs %d",
					g, i, len(it.Weight), len(p.Capacity))
			}
			for d, w := range it.Weight {
				if w < 0 || math.IsNaN(w) {
					return fmt.Errorf("mmkp: group %d item %d: bad weight[%d]=%v", g, i, d, w)
				}
			}
			if math.IsNaN(it.Value) {
				return fmt.Errorf("mmkp: group %d item %d: NaN value", g, i)
			}
		}
	}
	return nil
}

// Feasible reports whether the choice satisfies all capacity constraints.
func (p *Problem) Feasible(c Choice) bool {
	if len(c) != len(p.Groups) {
		return false
	}
	used := make([]float64, len(p.Capacity))
	for g, idx := range c {
		if idx < 0 || idx >= len(p.Groups[g]) {
			return false
		}
		for d, w := range p.Groups[g][idx].Weight {
			used[d] += w
		}
	}
	for d := range used {
		if used[d] > p.Capacity[d]+1e-9 {
			return false
		}
	}
	return true
}

// Value returns the total value of a choice (no feasibility check).
func (p *Problem) Value(c Choice) float64 {
	total := 0.0
	for g, idx := range c {
		total += p.Groups[g][idx].Value
	}
	return total
}

// SolveExact finds a maximum-value feasible choice by depth-first
// branch-and-bound. It returns nil when the instance is infeasible.
// Groups are explored in input order; within a group, items are tried in
// descending value so that good incumbents appear early.
func (p *Problem) SolveExact() Choice {
	if err := p.Validate(); err != nil {
		return nil
	}
	n := len(p.Groups)
	dims := len(p.Capacity)
	// Per-group value-descending item order and per-suffix max values for
	// the bound.
	order := make([][]int, n)
	maxVal := make([]float64, n+1) // maxVal[g] = Σ_{h≥g} max value of group h
	for g := n - 1; g >= 0; g-- {
		idx := make([]int, len(p.Groups[g]))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return p.Groups[g][idx[a]].Value > p.Groups[g][idx[b]].Value
		})
		order[g] = idx
		maxVal[g] = maxVal[g+1] + p.Groups[g][idx[0]].Value
	}
	used := make([]float64, dims)
	cur := make(Choice, n)
	var best Choice
	bestVal := math.Inf(-1)
	var dfs func(g int, acc float64)
	dfs = func(g int, acc float64) {
		if g == n {
			if acc > bestVal {
				bestVal = acc
				best = append(Choice(nil), cur...)
			}
			return
		}
		if acc+maxVal[g] <= bestVal {
			return // bound: cannot beat incumbent
		}
		for _, i := range order[g] {
			it := p.Groups[g][i]
			ok := true
			for d := 0; d < dims; d++ {
				if used[d]+it.Weight[d] > p.Capacity[d]+1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for d := 0; d < dims; d++ {
				used[d] += it.Weight[d]
			}
			cur[g] = i
			dfs(g+1, acc+it.Value)
			for d := 0; d < dims; d++ {
				used[d] -= it.Weight[d]
			}
		}
	}
	dfs(0, 0)
	if math.IsInf(bestVal, -1) {
		return nil
	}
	return best
}

// LRResult carries the outcome of the Lagrangian relaxation.
type LRResult struct {
	// Lambda is the final non-negative multiplier vector (one per
	// resource dimension).
	Lambda []float64
	// Choice is the per-group argmax selection under the final
	// multipliers (not necessarily capacity-feasible).
	Choice Choice
	// Feasible reports whether Choice satisfies the capacities.
	Feasible bool
	// UpperBound is the best (smallest) Lagrangian dual value seen,
	// an upper bound on the optimal primal value.
	UpperBound float64
	// Iterations is the number of subgradient steps performed.
	Iterations int
}

// SolveLR runs the subgradient method on the Lagrangian relaxation of the
// MMKP for at most maxIter iterations (the paper's MMKP-LR limits it to
// 100). The relaxation dualizes the capacity constraints:
//
//	L(λ) = Σ_g max_i (v_i − λ·w_i) + λ·C,   λ ≥ 0.
//
// The returned multipliers price the resources; the MMKP-LR scheduler
// turns them into per-configuration costs.
func (p *Problem) SolveLR(maxIter int) LRResult {
	res := LRResult{}
	if err := p.Validate(); err != nil || maxIter <= 0 {
		return res
	}
	dims := len(p.Capacity)
	lambda := make([]float64, dims)
	bestDual := math.Inf(1)
	bestLambda := make([]float64, dims)
	// Initial step size from the value scale of the instance.
	scale := 0.0
	for _, items := range p.Groups {
		groupMax := math.Inf(-1)
		for _, it := range items {
			if v := math.Abs(it.Value); v > groupMax {
				groupMax = v
			}
		}
		scale += groupMax
	}
	if scale == 0 {
		scale = 1
	}
	choice := make(Choice, len(p.Groups))
	for k := 1; k <= maxIter; k++ {
		// Per-group argmax of v − λ·w.
		dual := 0.0
		usage := make([]float64, dims)
		for g, items := range p.Groups {
			bestI, bestV := 0, math.Inf(-1)
			for i, it := range items {
				v := it.Value
				for d, w := range it.Weight {
					v -= lambda[d] * w
				}
				if v > bestV {
					bestV, bestI = v, i
				}
			}
			choice[g] = bestI
			dual += bestV
			for d, w := range items[bestI].Weight {
				usage[d] += w
			}
		}
		for d := range lambda {
			dual += lambda[d] * p.Capacity[d]
		}
		if dual < bestDual {
			bestDual = dual
			copy(bestLambda, lambda)
		}
		// Subgradient of the dual at λ: C − usage (for the λ·(C−usage)
		// term); we ascend toward feasibility: increase λ_d when
		// usage exceeds capacity.
		norm2 := 0.0
		grad := make([]float64, dims)
		for d := range grad {
			grad[d] = usage[d] - p.Capacity[d]
			norm2 += grad[d] * grad[d]
		}
		if norm2 < 1e-18 {
			break // relaxed solution feasible and complementary
		}
		step := scale / (float64(k) * math.Sqrt(norm2))
		for d := range lambda {
			lambda[d] += step * grad[d]
			if lambda[d] < 0 {
				lambda[d] = 0
			}
		}
		res.Iterations = k
	}
	// Final selection under the best multipliers seen.
	copy(lambda, bestLambda)
	usage := make([]float64, dims)
	for g, items := range p.Groups {
		bestI, bestV := 0, math.Inf(-1)
		for i, it := range items {
			v := it.Value
			for d, w := range it.Weight {
				v -= lambda[d] * w
			}
			if v > bestV {
				bestV, bestI = v, i
			}
		}
		choice[g] = bestI
		for d, w := range items[bestI].Weight {
			usage[d] += w
		}
	}
	feasible := true
	for d := range usage {
		if usage[d] > p.Capacity[d]+1e-9 {
			feasible = false
			break
		}
	}
	res.Lambda = lambda
	res.Choice = append(Choice(nil), choice...)
	res.Feasible = feasible
	res.UpperBound = bestDual
	return res
}
