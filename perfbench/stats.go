package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest of p99, p90 and p75 that has at least ten
// samples beyond it, with its label; ("max", max) when none has.
func tail(xs []float64) (string, float64) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99", 0.99}, {"p90", 0.90}, {"p75", 0.75}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			return p.label, quantile(xs, p.q)
		}
	}
	return "max", quantile(xs, 1)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// subSeed derives the k-th input seed from the workload seed
// (splitmix64), positive and below 2^31 so every generator accepts it.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z&(1<<31-1)) | 1
}

// digests remembers the first digest seen per key and reports whether
// later ones agree with it.
type digests map[string]string

func (d digests) check(key string, v any, extra ...any) (string, bool) {
	payload, err := json.Marshal(append([]any{v}, extra...))
	if err != nil {
		return "", false
	}
	h := sha256.Sum256(payload)
	got := hex.EncodeToString(h[:8])
	if want, ok := d[key]; ok {
		return got, want == got
	}
	d[key] = got
	return got, true
}
