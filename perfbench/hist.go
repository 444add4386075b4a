package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var epoch = time.Now()

// nanotime reads the monotonic clock in ns since start-up.
func nanotime() int64 { return int64(time.Since(epoch)) }

// clockCost is the median cost of one nanotime pair, subtracted from
// single-call samples so sub-100ns calls are not dominated by the clock.
var clockCost int64

func calibrateClock() {
	d := make([]int64, 2001)
	for i := range d {
		t0 := nanotime()
		d[i] = nanotime() - t0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	clockCost = d[len(d)/2]
}

// histSub is the log2 of the sub-buckets per power of two: 32 of them keep
// a quantile within ~3% of the true sample.
const histSub = 5

// hist is a log-linear histogram of non-negative durations. Adding is
// allocation-free, so it can sit inside the simulator's call paths.
type hist struct {
	counts [64 + (64-histSub-1)<<histSub]int64
	n      int64
}

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2<<histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (histSub + 1)
	return 2<<histSub + (e-1)<<histSub + int(v>>e) - 1<<histSub
}

// histLow is the smallest value that lands in bucket b.
func histLow(b int) int64 {
	if b < 2<<histSub {
		return int64(b)
	}
	e := (b-2<<histSub)>>histSub + 1
	return int64((b-2<<histSub)&(1<<histSub-1)+1<<histSub) << e
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

// addClockNet records a single-call duration net of the clock's own cost.
func (h *hist) addClockNet(d int64) { h.add(d - clockCost) }

// quantile returns the midpoint of the bucket holding the q-th sample, or
// 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := histLow(b), histLow(b+1)
			return float64(lo+hi-1) / 2
		}
	}
	return 0
}

// span is one timed interval at a layer boundary, in ns since start-up.
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written once, at exit.
type spanLog struct {
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: nanotime()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].End = nanotime() }

func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
