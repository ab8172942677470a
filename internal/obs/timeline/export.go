package timeline

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Wire formats. The CSV is the canonical interchange form: a self-
// describing header (interval and SLO declarations in comment lines, one
// column per metric with a kind prefix) followed by one row per window.
// Columns are sorted within each kind, values are formatted determin-
// istically, so equal captures produce byte-identical files — the
// property the worker-count determinism test pins. The OpenMetrics text
// export mirrors the same data for Prometheus-family tooling.

const csvMagic = "# astriflash timeline v1"

// WriteCSV streams samples as the self-describing timeline CSV.
func WriteCSV(w io.Writer, samples []Sample, intervalNs int64, slos []SLO) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "%s\n", csvMagic)
	fmt.Fprintf(bw, "# interval_ns %d\n", intervalNs)
	for _, s := range slos {
		fmt.Fprintf(bw, "# slo %s|%s|%s|%d|%s\n",
			s.Name, s.Metric, trimFloat(s.Percentile), s.ThresholdNs, trimFloat(s.Target))
	}
	counters, gauges, hists := MetricNames(samples)

	header := []string{"point", "window", "start_ns", "end_ns"}
	for _, n := range counters {
		header = append(header, "c."+n)
	}
	for _, n := range gauges {
		header = append(header, "g."+n)
	}
	for _, n := range hists {
		header = append(header, "h."+n+".count", "h."+n+".mean", "h."+n+".p50_ns", "h."+n+".p99_ns", "h."+n+".p999_ns")
	}
	sloNames := make([]string, 0, len(slos))
	for _, s := range slos {
		sloNames = append(sloNames, s.Name)
		header = append(header, "slo."+s.Name+".bad")
	}
	bw.WriteString(strings.Join(header, ","))
	bw.WriteByte('\n')

	for _, s := range samples {
		row := make([]string, 0, len(header))
		row = append(row,
			strconv.Itoa(s.Point), strconv.Itoa(s.Window),
			strconv.FormatInt(s.StartNs, 10), strconv.FormatInt(s.EndNs, 10))
		for _, n := range counters {
			row = append(row, strconv.FormatUint(s.Counters[n], 10))
		}
		for _, n := range gauges {
			row = append(row, trimFloat(s.Gauges[n]))
		}
		for _, n := range hists {
			h := s.Hists[n]
			row = append(row,
				strconv.FormatUint(h.Count, 10), trimFloat(h.Mean),
				strconv.FormatInt(h.P50Ns, 10), strconv.FormatInt(h.P99Ns, 10),
				strconv.FormatInt(h.P999Ns, 10))
		}
		for _, n := range sloNames {
			row = append(row, strconv.FormatUint(s.Bad[n], 10))
		}
		bw.WriteString(strings.Join(row, ","))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Capture is a decoded timeline file: the samples plus the metadata the
// writer embedded.
type Capture struct {
	IntervalNs int64
	SLOs       []SLO
	Samples    []Sample
}

// ReadCSV decodes a timeline written by WriteCSV.
func ReadCSV(r io.Reader) (*Capture, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	tl := &Capture{}

	// Comment prologue: magic, interval, SLO declarations.
	first := true
	var headerLine string
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("timeline: truncated CSV: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		if first {
			if line != csvMagic {
				return nil, fmt.Errorf("timeline: not a timeline CSV (missing %q)", csvMagic)
			}
			first = false
			continue
		}
		if strings.HasPrefix(line, "# interval_ns ") {
			v, err := strconv.ParseInt(strings.TrimPrefix(line, "# interval_ns "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("timeline: bad interval line %q", line)
			}
			tl.IntervalNs = v
			continue
		}
		if strings.HasPrefix(line, "# slo ") {
			parts := strings.Split(strings.TrimPrefix(line, "# slo "), "|")
			if len(parts) != 5 {
				return nil, fmt.Errorf("timeline: bad slo line %q", line)
			}
			pct, err1 := parseFloat(parts[2])
			thr, err2 := strconv.ParseInt(parts[3], 10, 64)
			tgt, err3 := parseFloat(parts[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("timeline: bad slo line %q", line)
			}
			tl.SLOs = append(tl.SLOs, SLO{Name: parts[0], Metric: parts[1],
				Percentile: pct, ThresholdNs: thr, Target: tgt})
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		headerLine = line
		break
	}

	cols, err := parseHeader(headerLine, tl.SLOs)
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(br)
	cr.ReuseRecord = true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("timeline: reading CSV: %w", err)
		}
		if len(rec) != len(cols)+4 {
			return nil, fmt.Errorf("timeline: row has %d fields, header has %d", len(rec), len(cols)+4)
		}
		s := Sample{
			Counters: map[string]uint64{},
			Gauges:   map[string]float64{},
			Hists:    map[string]HistWindow{},
		}
		var err4 error
		geti := func(v string) int64 {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil && err4 == nil {
				err4 = err
			}
			return n
		}
		getu := func(v string) uint64 {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil && err4 == nil {
				err4 = err
			}
			return n
		}
		getf := func(v string) float64 {
			n, err := parseFloat(v)
			if err != nil && err4 == nil {
				err4 = err
			}
			return n
		}
		s.Point = int(geti(rec[0]))
		s.Window = int(geti(rec[1]))
		s.StartNs = geti(rec[2])
		s.EndNs = geti(rec[3])
		for i, c := range cols {
			val := rec[i+4]
			switch c.kind {
			case 'c':
				s.Counters[c.name] = getu(val)
			case 'g':
				s.Gauges[c.name] = getf(val)
			case 'h':
				h := s.Hists[c.name]
				switch c.field {
				case "count":
					h.Count = getu(val)
				case "mean":
					h.Mean = getf(val)
				case "p50_ns":
					h.P50Ns = geti(val)
				case "p99_ns":
					h.P99Ns = geti(val)
				case "p999_ns":
					h.P999Ns = geti(val)
				}
				s.Hists[c.name] = h
			case 's':
				if s.Bad == nil {
					s.Bad = map[string]uint64{}
				}
				s.Bad[c.name] = getu(val)
			}
		}
		if err4 != nil {
			return nil, fmt.Errorf("timeline: bad value in window %d: %w", s.Window, err4)
		}
		tl.Samples = append(tl.Samples, s)
	}
	return tl, nil
}

// csvColumn is one metric column of a timeline CSV header: kind 'c'
// (counter), 'g' (gauge), 'h' (histogram field) or 's' (an SLO's bad
// count), the metric or SLO name, and for histograms the field.
type csvColumn struct {
	kind        byte
	name, field string
}

// parseHeader decodes the header line past its four fixed columns. Every
// column needs a known kind and a non-empty name, every histogram column a
// known field, and the SLO columns must name exactly the declared SLOs.
func parseHeader(line string, slos []SLO) ([]csvColumn, error) {
	header := strings.Split(line, ",")
	if len(header) < 4 || strings.Join(header[:4], ",") != "point,window,start_ns,end_ns" {
		return nil, fmt.Errorf("timeline: unexpected CSV header %q", line)
	}
	declared := map[string]bool{}
	for _, s := range slos {
		declared[s.Name] = false
	}
	cols := make([]csvColumn, 0, len(header)-4)
	for _, col := range header[4:] {
		var c csvColumn
		switch {
		case strings.HasPrefix(col, "c."), strings.HasPrefix(col, "g."):
			c = csvColumn{kind: col[0], name: col[2:]}
		case strings.HasPrefix(col, "h."):
			dot := strings.LastIndex(col, ".")
			if dot < 2 {
				return nil, fmt.Errorf("timeline: histogram column %q has no field", col)
			}
			c = csvColumn{kind: 'h', name: col[2:dot], field: col[dot+1:]}
			switch c.field {
			case "count", "mean", "p50_ns", "p99_ns", "p999_ns":
			default:
				return nil, fmt.Errorf("timeline: unknown histogram field %q", col)
			}
		case strings.HasPrefix(col, "slo.") && strings.HasSuffix(col[4:], ".bad"):
			c = csvColumn{kind: 's', name: col[4 : len(col)-4]}
		default:
			return nil, fmt.Errorf("timeline: unknown CSV column %q", col)
		}
		if c.name == "" {
			return nil, fmt.Errorf("timeline: CSV column %q has an empty name", col)
		}
		if c.kind == 's' {
			if _, ok := declared[c.name]; !ok {
				return nil, fmt.Errorf("timeline: column %q names no declared SLO", col)
			}
			declared[c.name] = true
		}
		cols = append(cols, c)
	}
	for name, seen := range declared {
		if !seen {
			return nil, fmt.Errorf("timeline: declared SLO %q has no column", name)
		}
	}
	return cols, nil
}

// parseFloat parses a float column. NaN is rejected: no timeline value is
// NaN, and a NaN would not compare equal to itself after a round trip.
func parseFloat(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && math.IsNaN(f) {
		err = fmt.Errorf("NaN value %q", v)
	}
	return f, err
}

// WriteOpenMetrics renders the timeline in OpenMetrics text format:
// counters as cumulative-within-capture *_total series, gauges and
// per-window histogram percentiles as gauge series, one series per sweep
// point, timestamped with the window end in simulated seconds.
func WriteOpenMetrics(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	counters, gauges, hists := MetricNames(samples)

	ts := func(s Sample) string {
		return strconv.FormatFloat(float64(s.EndNs)/1e9, 'f', -1, 64)
	}

	for _, n := range counters {
		m := "astriflash_" + sanitizeMetric(n)
		fmt.Fprintf(bw, "# TYPE %s counter\n", m)
		fmt.Fprintf(bw, "# HELP %s window delta of registry counter %s, accumulated over the capture\n", m, n)
		cum := map[int]uint64{}
		for _, s := range samples {
			cum[s.Point] += s.Counters[n]
			fmt.Fprintf(bw, "%s_total{point=\"%d\"} %d %s\n", m, s.Point, cum[s.Point], ts(s))
		}
	}
	for _, n := range gauges {
		m := "astriflash_" + sanitizeMetric(n)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", m)
		fmt.Fprintf(bw, "# HELP %s registry gauge %s sampled at window end\n", m, n)
		for _, s := range samples {
			fmt.Fprintf(bw, "%s{point=\"%d\"} %s %s\n", m, s.Point, trimFloat(s.Gauges[n]), ts(s))
		}
	}
	for _, n := range hists {
		m := "astriflash_" + sanitizeMetric(n)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", m)
		fmt.Fprintf(bw, "# HELP %s per-window distribution of registry histogram %s\n", m, n)
		for _, s := range samples {
			h := s.Hists[n]
			p := fmt.Sprintf("point=\"%d\"", s.Point)
			fmt.Fprintf(bw, "%s{%s,stat=\"count\"} %d %s\n", m, p, h.Count, ts(s))
			fmt.Fprintf(bw, "%s{%s,stat=\"p50\"} %d %s\n", m, p, h.P50Ns, ts(s))
			fmt.Fprintf(bw, "%s{%s,stat=\"p99\"} %d %s\n", m, p, h.P99Ns, ts(s))
			fmt.Fprintf(bw, "%s{%s,stat=\"p999\"} %d %s\n", m, p, h.P999Ns, ts(s))
		}
	}
	bw.WriteString("# EOF\n")
	return bw.Flush()
}

// sanitizeMetric maps a dotted registry name onto the OpenMetrics charset.
func sanitizeMetric(n string) string {
	var b strings.Builder
	for _, r := range n {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Points returns the distinct sweep points present in samples, ascending.
func Points(samples []Sample) []int {
	seen := map[int]bool{}
	for _, s := range samples {
		seen[s.Point] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
