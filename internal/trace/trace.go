// Package trace captures, serializes, replays, and analyzes memory-access
// traces. The paper's methodology is trace-shaped at its core — every
// claim flows from the page-access pattern the workloads emit — so the
// reproduction makes traces first-class: capture a workload's stream,
// inspect its skew and reuse behavior, compute the miss-ratio curve a
// DRAM cache of any size would see (Figure 1 without simulation), and
// replay recorded traces through the full system.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"astriflash/internal/mem"
	"astriflash/internal/workload"
)

// Record is one traced access with its preceding compute time.
type Record struct {
	ComputeNs int64
	Addr      mem.Addr
	Write     bool
}

// Trace is a captured access stream with job boundaries.
type Trace struct {
	Records []Record
	// JobEnds holds the record index just past each job's last access.
	JobEnds []int
}

// Jobs returns the number of captured jobs.
func (t *Trace) Jobs() int { return len(t.JobEnds) }

// Job returns the records of job i.
func (t *Trace) Job(i int) []Record {
	if i < 0 || i >= len(t.JobEnds) {
		panic(fmt.Sprintf("trace: job %d of %d", i, len(t.JobEnds)))
	}
	start := 0
	if i > 0 {
		start = t.JobEnds[i-1]
	}
	return t.Records[start:t.JobEnds[i]]
}

// Capture runs the workload for jobs requests and records the stream.
func Capture(w workload.Workload, jobs int) *Trace {
	t := &Trace{}
	var steps []workload.Step
	for j := 0; j < jobs; j++ {
		steps = w.NewJobSteps(steps)
		for _, s := range steps {
			t.Records = append(t.Records, Record{
				ComputeNs: s.ComputeNs,
				Addr:      s.Access.Addr,
				Write:     s.Access.Write,
			})
		}
		t.JobEnds = append(t.JobEnds, len(t.Records))
	}
	return t
}

// File format: magic, version, record count, job count, then records
// (compute varint, addr varint, flags byte) and job ends (varints).
const (
	magic   = 0x41465452 // "AFTR"
	version = 1
)

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(t.Records)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(t.JobEnds)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	// Delta-encode addresses: consecutive accesses are often nearby.
	var prev uint64
	for _, r := range t.Records {
		if err := putUvarint(uint64(r.ComputeNs)); err != nil {
			return err
		}
		delta := uint64(r.Addr) ^ prev // XOR delta stays small for locality
		prev = uint64(r.Addr)
		if err := putUvarint(delta); err != nil {
			return err
		}
		flag := byte(0)
		if r.Write {
			flag = 1
		}
		if err := bw.WriteByte(flag); err != nil {
			return err
		}
	}
	prevEnd := uint64(0)
	for _, e := range t.JobEnds {
		if err := putUvarint(uint64(e) - prevEnd); err != nil {
			return err
		}
		prevEnd = uint64(e)
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nrec := binary.LittleEndian.Uint32(hdr[8:])
	njob := binary.LittleEndian.Uint32(hdr[12:])
	const maxRecords = 1 << 30
	if nrec > maxRecords || njob > nrec+1 {
		return nil, fmt.Errorf("trace: implausible sizes %d/%d", nrec, njob)
	}
	t := &Trace{Records: make([]Record, 0, nrec), JobEnds: make([]int, 0, njob)}
	var prev uint64
	for i := uint32(0); i < nrec; i++ {
		compute, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d compute: %w", i, err)
		}
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d addr: %w", i, err)
		}
		addr := delta ^ prev
		prev = addr
		flag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d flag: %w", i, err)
		}
		t.Records = append(t.Records, Record{
			ComputeNs: int64(compute),
			Addr:      mem.Addr(addr),
			Write:     flag&1 != 0,
		})
	}
	prevEnd := uint64(0)
	for i := uint32(0); i < njob; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: job end %d: %w", i, err)
		}
		prevEnd += d
		if prevEnd > uint64(len(t.Records)) {
			return nil, fmt.Errorf("trace: job end %d beyond records", prevEnd)
		}
		t.JobEnds = append(t.JobEnds, int(prevEnd))
	}
	return t, nil
}

// Replayer is a workload.Workload that replays a captured trace,
// cycling through its jobs. It lets recorded (or externally produced)
// traces drive the full simulator.
type Replayer struct {
	trace *Trace
	next  int
	pages uint64
}

// NewReplayer wraps a trace as a workload. datasetPages bounds the
// address space; it is validated against the trace.
func NewReplayer(t *Trace, datasetPages uint64) (*Replayer, error) {
	if t.Jobs() == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	var maxPage mem.PageNum
	for _, r := range t.Records {
		if p := mem.PageOf(r.Addr); p > maxPage {
			maxPage = p
		}
	}
	if uint64(maxPage) >= datasetPages {
		return nil, fmt.Errorf("trace: touches page %d beyond dataset %d pages", maxPage, datasetPages)
	}
	return &Replayer{trace: t, pages: datasetPages}, nil
}

// Name implements workload.Workload.
func (r *Replayer) Name() string { return "trace-replay" }

// DatasetPages implements workload.Workload.
func (r *Replayer) DatasetPages() uint64 { return r.pages }

// NewJobSteps implements workload.StepReuser: it replays the next
// captured job into buf.
func (r *Replayer) NewJobSteps(buf []workload.Step) []workload.Step {
	recs := r.trace.Job(r.next)
	r.next = (r.next + 1) % r.trace.Jobs()
	steps := buf[:0]
	for _, rec := range recs {
		compute := rec.ComputeNs
		if compute <= 0 {
			compute = 1
		}
		steps = append(steps, workload.Step{
			ComputeNs: compute,
			Access:    mem.Access{Addr: rec.Addr, Write: rec.Write},
		})
	}
	return steps
}
