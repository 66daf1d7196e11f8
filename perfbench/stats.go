package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durationsMS converts a latency sample to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// heapAllocated is the runtime's cumulative count of heap bytes allocated.
// Unlike runtime.ReadMemStats it does not stop the world.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed is one latency, in milliseconds, with when it was due relative to
// the start of its phase.
type timed struct {
	at time.Duration
	ms float64
}

// windowed splits samples into consecutive windows of length w by when
// they were due and returns the median over the windows of f of each. An
// episode of interference from outside the process that covers fewer than
// half of the windows moves no figure.
func windowed(xs []timed, w time.Duration, f func([]float64) float64) float64 {
	byWindow := map[time.Duration][]float64{}
	for _, x := range xs {
		byWindow[x.at/w] = append(byWindow[x.at/w], x.ms)
	}
	var per []float64
	for _, v := range byWindow {
		per = append(per, f(v))
	}
	return median(per)
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p90(xs []float64) float64 { return quantile(xs, 0.9) }

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the CPU time (user and system) the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcStats is a point-in-time read of the collector's cumulative counters;
// the difference of two reads is the work of the interval between them.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pauseNS: m.PauseTotalNs}
}

// gcLayer reports the collector's work since start as the go.* metrics.
func gcLayer(start gcStats, layers map[string]float64) {
	end := readGC()
	layers["go.gc_cycles"] = float64(end.cycles - start.cycles)
	layers["go.gc_pause_ms"] = float64(end.pauseNS-start.pauseNS) / 1e6
}

// sourceDigest hashes the repository's Go sources and module files, so a
// report identifies the measured code even where no commit is known (the
// benchmark's own build directory is skipped).
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && !strings.HasSuffix(path, ".json") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
