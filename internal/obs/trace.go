package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SortSpans orders spans into the canonical trace order: sweep point,
// then start and end time, then request, fetch, core, stage, and page.
// Event-driven and flattened execution emit the same span *set* in
// different interleavings; the canonical order makes trace files
// byte-comparable across execution strategies.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		switch {
		case a.Point != b.Point:
			return a.Point < b.Point
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.End != b.End:
			return a.End < b.End
		case a.Req != b.Req:
			return a.Req < b.Req
		case a.Fetch != b.Fetch:
			return a.Fetch < b.Fetch
		case a.Core != b.Core:
			return a.Core < b.Core
		case a.Stage != b.Stage:
			return a.Stage < b.Stage
		default:
			return a.Page < b.Page
		}
	})
}

// Trace file format: a Chrome trace-event JSON array (load it in
// chrome://tracing or Perfetto), one complete-event object per line.
// ts/dur are microseconds as the format requires; args carries the
// lossless nanosecond timestamps plus the request/fetch/page correlation
// IDs, which is what ReadTrace and the analyzer consume. pid is the sweep
// point, tid the core (fetch-scoped spans use tid 0 with core -1 in args).

// traceEvent is the wire form of one span.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	Req     uint64 `json:"req"`
	Fetch   uint64 `json:"fetch"`
	Core    int    `json:"core"`
	Page    uint64 `json:"page"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// WriteTrace streams spans as a Chrome trace-event JSON array, in
// canonical order (the slice is sorted in place; see SortSpans).
func WriteTrace(w io.Writer, spans []Span) error {
	SortSpans(spans)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, sp := range spans {
		cat := "req"
		if !sp.Stage.RequestScoped() {
			cat = "fetch"
		}
		tid := sp.Core
		if tid < 0 {
			tid = 0
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		// Hand-formatted for speed and byte-stable output; fields mirror
		// traceEvent exactly so ReadTrace can decode with encoding/json.
		_, err := fmt.Fprintf(bw,
			`{"name":%q,"cat":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,`+
				`"args":{"req":%d,"fetch":%d,"core":%d,"page":%d,"start_ns":%d,"end_ns":%d}}`,
			sp.Stage.String(), cat, sp.Point, tid,
			float64(sp.Start)/1e3, float64(sp.End-sp.Start)/1e3,
			sp.Req, sp.Fetch, sp.Core, sp.Page, sp.Start, sp.End)
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace back into spans. It
// rejects spans that end before they start (zero-length spans are legal:
// queue spans and the complete marker) and anything but whitespace after
// the closing bracket.
func ReadTrace(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("obs: trace does not start with a JSON array")
	}
	var spans []Span
	for dec.More() {
		var ev traceEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("obs: decoding trace event %d: %w", len(spans), err)
		}
		st, ok := StageFromName(ev.Name)
		if !ok {
			return nil, fmt.Errorf("obs: unknown stage %q in trace event %d", ev.Name, len(spans))
		}
		if ev.Args.EndNs < ev.Args.StartNs {
			return nil, fmt.Errorf("obs: trace event %d ends at %d ns before it starts at %d ns",
				len(spans), ev.Args.EndNs, ev.Args.StartNs)
		}
		spans = append(spans, Span{
			Point: ev.Pid,
			Req:   ev.Args.Req,
			Fetch: ev.Args.Fetch,
			Core:  ev.Args.Core,
			Stage: st,
			Page:  ev.Args.Page,
			Start: ev.Args.StartNs,
			End:   ev.Args.EndNs,
		})
	}
	if _, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("obs: reading trace close: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("obs: trailing data after trace array")
	}
	return spans, nil
}
