package obs

import "fmt"

// Stage labels one segment of a request's (or a BC page fetch's) lifetime.
//
// Request-scoped stages tile a request's service time exactly: for every
// completed request, the durations of its request-scoped spans (excluding
// the queue stage and the complete marker) sum to DoneAt-StartedAt. That
// invariant is what lets the analyzer reconcile a stage breakdown against
// the end-to-end service latency, and it is enforced by test.
//
// Fetch-scoped stages describe the backside controller's page-fetch
// pipeline. They overlap request time (many requests can wait on one
// fetch) and are reported per fetch, not per request.
type Stage uint8

// Request-scoped stages, in lifecycle order.
const (
	// StageQueue is arrival to first dispatch (open-loop queueing delay).
	StageQueue Stage = iota
	// StageCompute is workload execution between memory references.
	StageCompute
	// StageTLB covers TLB lookup and, on a TLB miss, the page-table walk.
	StageTLB
	// StageOnChip is L1/L2/LLC latency for one reference.
	StageOnChip
	// StageDRAM is a DRAM-cache hit: tag probe plus data transfer.
	StageDRAM
	// StageMissSignal is the FC miss reply turnaround (issue to ECC-style
	// miss signal, Section IV-C1).
	StageMissSignal
	// StageFlushSwitch is the ROB flush plus user-level thread switch
	// charged when a miss deschedules the thread (Section IV-C2).
	StageFlushSwitch
	// StageFlashWait is time parked waiting for the missing page (from
	// handler dispatch to page arrival).
	StageFlashWait
	// StageSyncWait is a synchronous stall on the missing page: Flash-Sync
	// mode, and AstriFlash's forced-progress / pending-queue-full paths.
	StageSyncWait
	// StageOSInstall is the OS-Swap kernel install path after arrival
	// (page-table update, shootdown) before the task is woken.
	StageOSInstall
	// StageSchedWait is page-ready (or wake) to regaining the core.
	StageSchedWait
	// StageComplete is a zero-length marker at request completion; the
	// analyzer treats requests without it as cut off by the window edge.
	StageComplete

	// Fetch-scoped stages (backside controller).

	// StageMSRProbe is the MSR row probe plus BC occupancy for one miss.
	StageMSRProbe
	// StageMSRWait is time a miss spent queued behind a full MSR set.
	StageMSRWait
	// StageFlashRead is the first flash read attempt of a fetch.
	StageFlashRead
	// StageFlashRetry is a re-issued read after a timeout or an
	// uncorrectable completion (the read-retry ladder).
	StageFlashRetry
	// StageFlashFallback is the FTL recovered-copy read after the retry
	// budget is exhausted.
	StageFlashFallback
	// StageFill is the DRAM row write installing the arrived page.
	StageFill

	stageCount
)

var stageNames = [stageCount]string{
	"queue", "compute", "tlb", "on-chip", "dram", "miss-signal",
	"flush-switch", "flash-wait", "sync-wait", "os-install", "sched-wait",
	"complete",
	"msr-probe", "msr-wait", "flash-read", "flash-retry", "flash-fallback",
	"fill",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// RequestScoped reports whether s tiles request time (vs BC fetch time).
func (s Stage) RequestScoped() bool { return s <= StageComplete }

// ServiceStage reports whether s counts toward a request's service time
// (everything between first dispatch and completion).
func (s Stage) ServiceStage() bool { return s > StageQueue && s < StageComplete }

// StageFromName maps a stage's display name back to its value.
func StageFromName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Span is one recorded lifecycle segment on the simulated clock.
type Span struct {
	// Point identifies the sweep point (load level) the span came from;
	// single-run traces use 0.
	Point int
	// Req is the request ID for request-scoped spans; 0 for fetch spans.
	Req uint64
	// Fetch is the BC fetch ID for fetch-scoped spans; 0 for request spans.
	Fetch uint64
	// Core is the core the span ran on; -1 for controller-side spans.
	Core int
	// Stage labels the segment.
	Stage Stage
	// Page is the page involved, when the stage concerns one (0 otherwise).
	Page uint64
	// Start and End are simulated nanoseconds. End == Start marks an
	// instant (the complete marker).
	Start int64
	End   int64
}

// Dur returns the span's duration in nanoseconds.
func (sp Span) Dur() int64 { return sp.End - sp.Start }

// Tracer collects spans in emission order. It does nothing else: no
// event scheduling, no randomness, so tracing cannot perturb a run.
type Tracer struct {
	spans    []Span
	fetchSeq uint64
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Emit records one span.
func (t *Tracer) Emit(sp Span) { t.spans = append(t.spans, sp) }

// NextFetchID allocates a fetch correlation ID (1-based).
func (t *Tracer) NextFetchID() uint64 {
	t.fetchSeq++
	return t.fetchSeq
}

// Spans returns the recorded spans in emission order. The slice is the
// tracer's backing store; callers must not mutate it while tracing.
func (t *Tracer) Spans() []Span { return t.spans }

// Len returns the number of recorded spans.
func (t *Tracer) Len() int { return len(t.spans) }
