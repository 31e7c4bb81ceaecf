package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// runtimeStats is a cumulative sample of the Go runtime's allocation and
// GC counters.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
}

// readRuntime samples the cumulative heap allocation and GC cycle counts.
func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM) from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: parse %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// The host probe is a fixed loop that no change to the program can speed
// up or slow down: a random pointer chase through 8 MiB, walked once to
// warm it and then timed, followed by an integer hash loop. On the
// reference host, a 2-vCPU VM, other tenants move it, and the program's
// speed with it, by 10-40% between runs minutes apart; host_ref_ms lets a
// reader tell a slow host from a slow program.
const (
	chaseSteps  = 1 << 16
	hashSteps   = 1 << 21
	probeRounds = 20
)

// chase is one random cycle over 8 MiB of int32 indices (Sattolo's
// shuffle), so every step depends on the previous load.
var chase []int32

// probeSink keeps the compiler from dropping the probe loops.
var probeSink uint64

// probeHost lets the garbage collector finish and records probeRounds
// host_ref_ms samples; a run calls it right before and right after its
// window, never inside it.
func (b *bench) probeHost() {
	if chase == nil {
		chase = make([]int32, 1<<21)
		for i := range chase {
			chase[i] = int32(i)
		}
		rng := rand.New(rand.NewSource(1))
		for i := len(chase) - 1; i > 0; i-- {
			j := rng.Intn(i)
			chase[i], chase[j] = chase[j], chase[i]
		}
	}
	walk := func() uint64 {
		j := int32(0)
		for k := 0; k < chaseSteps; k++ {
			j = chase[j]
		}
		return uint64(j)
	}
	runtime.GC()
	for r := 0; r < probeRounds; r++ {
		walk()
		start := time.Now()
		x := walk()
		for k := 0; k < hashSteps; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 13
		}
		probeSink += x
		b.host = append(b.host, ms(time.Since(start)))
	}
}
