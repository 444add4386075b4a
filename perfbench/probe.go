package main

// The host speed probe. On a shared VM the host's speed changes by up to
// 1.8x and stays changed for minutes, so two runs of the same code read
// different host times. The probe is a fixed piece of work that shares no
// code with the simulator: a small set-associative cache model and Go map
// updates, the two kinds of work the simulator's tick is made of. An
// untraced run times it after every set-up round and every unit of a pass
// and scales each host time by probeNominal over the probe times around it.
// The host times it reports are therefore in seconds of a host on which
// the probe takes probeNominal: the 2-CPU VM the bounds were set on.

// probeNominal is the probe's median time, in ns, on that VM (go1.24.0,
// GOMAXPROCS=1).
const probeNominal = 30e6

const (
	probeSets     = 4096
	probeWays     = 8
	probeAccesses = 450_000
	probeMapOps   = 600_000
)

type probeLine struct {
	tag uint64
	lru uint32
}

// probeLines is the cache model's state. It is a package-level array, not
// a heap allocation, so it does not count in heap_peak_mb.
var probeLines [probeSets * probeWays]probeLine

var probeSink uint64

// probe runs the fixed work once and returns its host time in ns. The
// map it builds is garbage when it returns, and the forced GC before the
// next simulation frees it.
func probe() int64 {
	t0 := nanotime()
	probeCache(probeLines[:])
	probeMap(make(map[uint32]uint32, 1<<16))
	return nanotime() - t0
}

// probeCache runs an LRU cache model over a 64 MB address space: three
// accesses in four stream through lines, one jumps to a random address.
func probeCache(lines []probeLine) {
	x := uint64(88172645463325252)
	var hits, clk uint32
	var addr uint64
	for i := 0; i < probeAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			addr = x & (1<<26 - 1)
		} else {
			addr += 128
		}
		set := (addr >> 7) & (probeSets - 1)
		tag := addr >> 19
		ways := lines[set*probeWays : set*probeWays+probeWays]
		clk++
		victim, hit := 0, false
		for w := range ways {
			if ways[w].tag == tag {
				ways[w].lru = clk
				hit = true
				break
			}
			if ways[w].lru < ways[victim].lru {
				victim = w
			}
		}
		if hit {
			hits++
		} else {
			ways[victim] = probeLine{tag, clk}
		}
	}
	probeSink += uint64(hits)
}

// probeMap counts pseudo-random 16-bit keys in m.
func probeMap(m map[uint32]uint32) {
	x := uint32(2463534242)
	for i := 0; i < probeMapOps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		m[x&0xffff]++
	}
	probeSink += uint64(len(m))
}

// speed tracks the probe through a pass: the factor for a stretch of work
// is probeNominal over the mean of the probe times before and after it.
type speed struct {
	last  int64
	times []float64 // every probe time, ns
}

func newSpeed() *speed {
	p := probe()
	return &speed{last: p, times: []float64{float64(p)}}
}

// next probes again and returns the factor for the work done since the
// previous probe.
func (sp *speed) next() float64 {
	p := probe()
	f := probeNominal / (float64(sp.last+p) / 2)
	sp.last = p
	sp.times = append(sp.times, float64(p))
	return f
}
