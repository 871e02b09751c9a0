package sim

import (
	"fmt"
)

// BudgetError reports that an exploration reached more complete executions
// than its budget allows. Prefix is the full schedule of the first
// over-budget execution — the witness callers need to shrink a
// configuration or raise the budget deliberately instead of guessing.
//
// The over-budget execution itself is neither counted nor checked: every
// engine (Explore, ExploreReduced, ExploreParallel) guarantees that the
// returned execution count equals the number of executions check ran on, so
// the execution landing exactly on the budget boundary is always checked
// before the error surfaces.
type BudgetError struct {
	Budget int
	Prefix []int
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: exploration exceeded budget of %d executions (first over-budget schedule %v)", e.Budget, e.Prefix)
}

// Explore enumerates EVERY schedule of the system produced by build,
// invoking check on each completed execution, and returns how many
// executions it visited.
//
// A process's coroutine cannot be forked, so exploration replays prefixes: for
// each tree node the system is rebuilt from scratch and driven down the
// prefix. build must therefore be deterministic (same programs, same
// registers) — the same requirement the adversary's erase-and-replay
// surgery imposes.
//
// budget caps the number of complete executions; reaching another one
// beyond the cap returns a *BudgetError carrying the offending schedule
// (exhaustive exploration grows combinatorially, so configurations must be
// chosen small). The execution that lands exactly on the budget boundary is
// still checked and counted before the error can surface — the returned
// count always equals the number of check calls, matching ExploreParallel.
//
// Explore is the single-core reference implementation; ExploreParallel
// visits the identical execution set across a work-stealing worker pool
// with replay reuse, and ExploreReduced visits one representative per
// Mazurkiewicz trace equivalence class instead of every interleaving.
func Explore(build func() (*System, error), check func(*System) error, budget int) (int, error) {
	executions := 0

	// runPrefix rebuilds, replays prefix, and returns the active set (nil
	// means the execution is complete and check has run).
	runPrefix := func(prefix []int) ([]int, error) {
		s, err := build()
		if err != nil {
			return nil, fmt.Errorf("sim: explore build: %w", err)
		}
		defer s.Shutdown()
		if err := s.Run(prefix); err != nil {
			return nil, fmt.Errorf("sim: explore replay: %w", err)
		}
		if active := s.Active(); len(active) != 0 {
			return active, nil
		}
		// Budget test BEFORE counting: the first over-budget execution is
		// the error witness, not a visited execution — it is neither counted
		// nor checked, so the boundary execution (number == budget) always
		// had check run on it before the error returns.
		if executions >= budget {
			return nil, &BudgetError{Budget: budget, Prefix: append([]int(nil), prefix...)}
		}
		executions++
		if err := check(s); err != nil {
			return nil, fmt.Errorf("sim: schedule %v: %w", prefix, err)
		}
		return nil, nil
	}

	var explore func(prefix []int) error
	explore = func(prefix []int) error {
		active, err := runPrefix(prefix)
		if err != nil {
			return err
		}
		for _, id := range active {
			// Re-slice with a hard cap so sibling branches cannot alias
			// one another's prefix storage.
			if err := explore(append(prefix[:len(prefix):len(prefix)], id)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := explore(nil); err != nil {
		return executions, err
	}
	return executions, nil
}
