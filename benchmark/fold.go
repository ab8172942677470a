package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// simPrefix is the import-path prefix of the simulator's layers; the path
// element after it names the layer.
const simPrefix = "astriflash/internal/"

// pprofFold runs `go tool pprof -traces` on a profile and folds it by
// layer. sampleIndex selects the heap profile's value ("" for CPU).
func pprofFold(path, sampleIndex string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	cmd := exec.Command("go", append(args, path)...)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return foldTraces(strings.NewReader(string(out)))
}

// foldTraces sums the samples of `pprof -traces` output by layer. A
// sample is charged to its innermost astriflash/internal/<layer> frame, so
// a runtime allocation called from dramcache counts for dramcache; samples
// with no simulator frame are keyed "". Values are in the profile's base
// unit: nanoseconds for CPU time, bytes for heap space.
func foldTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var (
		value   float64
		layer   string
		inTrace bool
	)
	flush := func() {
		if inTrace {
			out[layer] += value
		}
		inTrace, layer, value = false, "", 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var frame string
		switch {
		case !inTrace && strings.HasSuffix(fields[0], ":"):
			continue // a sample label such as "bytes:  2.25kB"
		case !inTrace:
			if len(fields) < 2 {
				continue // header lines before the first trace
			}
			v, err := parseValue(fields[0])
			if err != nil {
				continue // header lines ("File:", "Type:", ...)
			}
			value, inTrace = v, true
			frame = fields[1]
		default:
			frame = fields[0]
		}
		if layer == "" {
			layer = layerOf(frame)
		}
	}
	flush()
	return out, sc.Err()
}

// layerOf maps a frame's function name to its simulator layer, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, simPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// units are pprof's display units, scaled to nanoseconds or bytes
// (pprof's memory units are binary).
var units = []struct {
	suffix string
	scale  float64
}{
	{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"mins", 60e9}, {"hrs", 3600e9}, {"s", 1e9},
	{"kB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1},
}

// parseValue reads one pprof display value such as "10ms" or "2.69MB".
func parseValue(s string) (float64, error) {
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return strconv.ParseFloat(s, 64)
}
