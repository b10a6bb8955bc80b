package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler tracks the Go heap (the bytes in allocated heap objects,
// live or not yet collected) by polling runtime/metrics, which does not
// stop the world.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	start time.Time
	at    []time.Duration
	bytes []uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), start: time.Now()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.at = append(h.at, time.Since(h.start))
			h.bytes = append(h.bytes, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopSampling ends sampling and waits for the sampler to exit.
func (h *heapSampler) stopSampling() {
	close(h.stop)
	h.done.Wait()
}

// peakMiB is the highest sample, in MiB.
func (h *heapSampler) peakMiB() float64 {
	var peak uint64
	for _, b := range h.bytes {
		peak = max(peak, b)
	}
	return float64(peak) / (1 << 20)
}

// peaksMiB is the highest sample in each span [from[i], to[i]), in MiB.
func (h *heapSampler) peaksMiB(from, to []time.Time) []float64 {
	out := make([]float64, len(from))
	for i, b := range h.bytes {
		at := h.start.Add(h.at[i])
		for k := range from {
			if !at.Before(from[k]) && at.Before(to[k]) {
				out[k] = max(out[k], float64(b)/(1<<20))
			}
		}
	}
	return out
}

// window is the width of the windows the serve workloads' rates and
// latency figures are taken over before their median is reported: the
// host's CPU is shared, and a stall of a few hundred ms then moves one
// window's figure instead of the whole run's.
const window = time.Second

// windows buckets samples 0..n-1 by their offset at(i) into consecutive
// windows of width w. A trailing window that is less than half full of
// time is dropped.
func windows(n int, w time.Duration, at func(i int) time.Duration) [][]int {
	var out [][]int
	var last time.Duration
	for i := 0; i < n; i++ {
		k := int(at(i) / w)
		for len(out) <= k {
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
		last = max(last, at(i))
	}
	if len(out) > 1 && last-time.Duration(len(out)-1)*w < w/2 {
		out = out[:len(out)-1]
	}
	return out
}

// host is the fingerprint stamped on every result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func fingerprint(workload string, seed int64, seconds int, traced bool) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the go command stamped into the binary;
// a build outside a git checkout has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
