package main

import (
	"encoding/json"
	"fmt"
	"os"

	"caps/internal/stats"
)

// expectedRun is what one simulation must reproduce.
type expectedRun struct {
	TotalCycles  int64 `json:"total_cycles"`
	Instructions int64 `json:"instructions"`
}

// expectedFile is expected.json: the simulator's own results for every
// benchmark as none/tlv and as caps/pas at the benchmark's instruction
// cap, keyed by simulation name. A change that alters the model on
// purpose regenerates it (see NOTES.md).
type expectedFile struct {
	MaxInsts int64                  `json:"max_insts"`
	Runs     map[string]expectedRun `json:"runs"`
}

// checker holds what every simulation must reproduce: the committed
// results, and the statistics of the first run of each simulation, which
// every repeat, lensed twin and traced rerun must match exactly.
type checker struct {
	want  expectedFile
	first map[string]stats.Sim
}

// loadChecker reads the committed results at run time.
func loadChecker(path string) (*checker, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &checker{first: make(map[string]stats.Sim)}
	if err := json.Unmarshal(data, &c.want); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if c.want.MaxInsts != maxInsts {
		return nil, fmt.Errorf("%s holds results at %d instructions, the benchmark runs %d",
			path, c.want.MaxInsts, maxInsts)
	}
	return c, nil
}

// check reports why a finished simulation's statistics are wrong, or nil.
func (c *checker) check(s simSpec, st *stats.Sim) error {
	key := s.plain().name()
	if st.Instructions < maxInsts {
		return fmt.Errorf("%s stopped at %d of %d instructions", s.name(), st.Instructions, maxInsts)
	}
	want, ok := c.want.Runs[key]
	if !ok {
		return fmt.Errorf("%s: no committed result", s.name())
	}
	if got := (expectedRun{st.Cycles, st.Instructions}); got != want {
		return fmt.Errorf("%s: %d cycles, %d instructions; committed result is %d cycles, %d instructions",
			s.name(), got.TotalCycles, got.Instructions, want.TotalCycles, want.Instructions)
	}
	prev, ok := c.first[key]
	if !ok {
		c.first[key] = *st
		return nil
	}
	if *st != prev {
		return fmt.Errorf("%s: statistics differ from the first %s run (hash %#x, want %#x)",
			s.name(), key, st.Hash64(), prev.Hash64())
	}
	return nil
}

// stats returns the recorded statistics of a simulation.
func (c *checker) stats(s simSpec) (stats.Sim, bool) {
	st, ok := c.first[s.plain().name()]
	return st, ok
}
