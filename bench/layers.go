package main

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// layers are the buckets host CPU time is attributed to: the
// simulator's modules, "other" for any snapbpf/internal package not
// listed, and "runtime" for samples with no snapbpf frame at all (GC,
// the scheduler, the benchmark harness).
var layers = []string{
	"sim", "guest", "vmm", "kvm", "hostmm", "pagecache", "blockdev", "ebpf",
	"prefetch", "store", "cluster", "workload", "faults", "check", "obs",
	"snapshot", "trace", "experiments", "other", "runtime",
}

// folded names the packages counted in another module's layer: the
// SnapBPF scheme with the other prefetch schemes, the kprobe glue with
// the eBPF engine. Sub-packages such as prefetch/reap and ebpf/absint
// count in their parent's layer.
var folded = map[string]string{"core": "prefetch", "kprobe": "ebpf"}

// layerOf maps a function name as pprof prints it to its layer; ok is
// false for a function outside snapbpf/internal.
func layerOf(fn string) (layer string, ok bool) {
	rest, ok := strings.CutPrefix(fn, "snapbpf/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	if l, ok := folded[rest]; ok {
		return l, true
	}
	if slices.Contains(layers, rest) {
		return rest, true
	}
	return "other", true
}

var totalRE = regexp.MustCompile(`of (\S+) total`)

// layerSeconds attributes the samples of a CPU profile to layers. It
// reads the output of
//
//	go tool pprof -top -unit=ms -nodecount=100000 -nodefraction=0 -show=^snapbpf/
//
// where -show hides every frame outside snapbpf, so each row's flat
// time is the samples whose innermost snapbpf frame is that function.
// Samples with no snapbpf frame are in the total but in no row; they
// go to runtime.
func layerSeconds(top string) (map[string]float64, error) {
	ms := make(map[string]float64, len(layers))
	for _, l := range layers {
		ms[l] = 0
	}
	var total float64
	haveTotal, inRows := false, false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		switch {
		case !haveTotal:
			if m := totalRE.FindStringSubmatch(line); m != nil {
				v, err := parseMillis(m[1])
				if err != nil {
					return nil, err
				}
				total, haveTotal = v, true
			}
		case !inRows:
			inRows = len(f) > 0 && f[0] == "flat"
		case len(f) >= 6:
			v, err := parseMillis(f[0])
			if err != nil {
				return nil, err
			}
			if l, ok := layerOf(f[5]); ok {
				ms[l] += v
			} else {
				ms["runtime"] += v
			}
		}
	}
	if !haveTotal {
		return nil, fmt.Errorf("pprof output has no total")
	}
	var shown float64
	for _, v := range ms {
		shown += v
	}
	ms["runtime"] += total - shown
	out := make(map[string]float64, len(ms))
	for l, v := range ms {
		out[l] = v / 1e3
	}
	return out, nil
}

// parseMillis parses a pprof duration such as 4920ms, 1.5s or 0 into
// milliseconds.
func parseMillis(s string) (float64, error) {
	scale := 1.0
	switch {
	case strings.HasSuffix(s, "ms"):
		s = strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "us"):
		s, scale = strings.TrimSuffix(s, "us"), 1e-3
	case strings.HasSuffix(s, "s"):
		s, scale = strings.TrimSuffix(s, "s"), 1e3
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof duration %q: %w", s, err)
	}
	return v * scale, nil
}
