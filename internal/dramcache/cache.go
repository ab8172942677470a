package dramcache

import (
	"fmt"

	"astriflash/internal/dram"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/obs"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
)

// Replacement selects the victim policy. The paper replaces OS page
// replacement with hardware "cache eviction policies" (Section III-B2);
// the choice is a BC microcode knob since BC is programmable.
type Replacement int

// Victim policies.
const (
	// ReplLRU evicts the least recently used page (default).
	ReplLRU Replacement = iota
	// ReplFIFO evicts the oldest-installed page regardless of reuse.
	ReplFIFO
	// ReplRandom evicts a deterministic pseudo-random way.
	ReplRandom
)

func (r Replacement) String() string {
	switch r {
	case ReplLRU:
		return "lru"
	case ReplFIFO:
		return "fifo"
	case ReplRandom:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config sizes the DRAM cache.
type Config struct {
	Pages uint64 // capacity in 4 KB pages (paper: 3% of the dataset)
	Ways  int    // set associativity; one 64 B tag column maps 8 ways

	// Replacement is the victim policy (default LRU).
	Replacement Replacement

	MSRSets int // miss-status row sets (x8 ways each)
	MSRWays int

	EvictBufferPages int // staging space for victims awaiting writeback

	FCOpNs int64 // frontside controller per-operation cost (FSM, ~1 cycle)
	BCOpNs int64 // backside controller per-operation cost (programmable, ~3 cycles)

	// FlashReadTimeoutNs arms BC's watchdog on each flash read: a read
	// that has not settled within this window is abandoned and re-issued.
	// 0 disables the watchdog (the default; the fault-free device always
	// completes).
	FlashReadTimeoutNs int64
	// FlashReadRetries bounds how many times BC re-issues a read after a
	// timeout or an uncorrectable completion before falling back to the
	// FTL's recovered copy, which cannot fail.
	FlashReadRetries int

	// Admission selects the flash-write admission policy (admission.go).
	// The zero value is admit-all: no filtering, and a cache whose event
	// stream is bit-identical to the pre-admission code.
	Admission AdmissionConfig
}

// DefaultConfig returns a scaled cache; capacity is set by the system
// layer from the dataset size and the 3% rule.
func DefaultConfig(pages uint64) Config {
	cfg := Config{
		Pages:            pages,
		Ways:             8,
		MSRSets:          64,
		MSRWays:          8,
		EvictBufferPages: 16,
		FCOpNs:           1,
		BCOpNs:           3,
	}
	// Scaled-down caches need enough sets to avoid conflict thrashing
	// that the paper's 2M-set cache never sees; widen ways only as far
	// as two tag columns allow.
	if pages <= 1<<16 {
		cfg.Ways = 16
	}
	if pages%uint64(cfg.Ways) != 0 {
		cfg.Ways = 8
	}
	return cfg
}

// msrWaiter is one miss stalled on a full MSR set.
type msrWaiter struct {
	page  mem.PageNum
	write bool
	at    sim.Time
}

type line struct {
	page  mem.PageNum
	valid bool
	dirty bool
	// pins mirrors pinned[page] while the page is resident, so victim
	// selection reads pins from the set it scans. It sits in what would
	// be padding: a line stays 32 bytes.
	pins      uint32
	lru       uint64 // last-touch stamp
	installed uint64 // install stamp (FIFO policy)
}

// Result is FC's reply to a data request.
type Result struct {
	Hit bool
	At  sim.Time // completion time of the reply (hit data or miss signal)
}

// Cache is the hardware-managed DRAM cache with its two controllers.
type Cache struct {
	cfg   Config
	eng   *sim.Engine
	dram  *dram.Device
	flash *flash.Device

	// lines is the tag/state store, one flat array indexed set*Ways+way.
	// A flat backing array keeps set probes on one cache line and makes
	// per-point System construction a single allocation instead of one
	// per set.
	lines    []line
	nsets    int
	stamp    uint64
	msr      *MSR
	msrRow   dram.Loc
	evictBuf int // pages currently staged for writeback

	// waiters maps a missing page to the registrations to wake on
	// arrival. waiterFree holds emptied waiter slices for reuse, and
	// fetchFree the released fetch records (fetch.go).
	waiters    map[mem.PageNum][]waiter
	waiterFree [][]waiter
	fetchFree  []*fetch
	// pinned holds reference counts for pages that must not be evicted:
	// the OS pins a faulted-in page until the faulting task has used it.
	// It is the source of truth, since a pin outlives residency when
	// every way is pinned; each valid line mirrors its page's count in
	// line.pins (newLine, Pin, Unpin).
	pinned map[mem.PageNum]int
	// msrWait queues misses that found their MSR set full, with their
	// arrival times so the queueing delay is observable.
	msrWait []msrWaiter

	// Trace, when non-nil, receives fetch-pipeline spans (observe.go). Set
	// by the system layer for the measurement window of traced runs.
	Trace *obs.Tracer
	// traceFetch maps in-flight pages to fetch correlation IDs; allocated
	// lazily, only ever populated while Trace is set.
	traceFetch map[mem.PageNum]uint64
	// fp is the optional footprint-fetch extension (footprint.go).
	fp *footprintState
	// fpPending marks resident pages with an in-flight secondary fetch
	// for underpredicted blocks.
	fpPending map[mem.PageNum]bool
	// fpFirst remembers the faulting address per in-flight miss so the
	// footprint install can center its default window on it.
	fpFirst map[mem.PageNum]mem.Addr

	// adm is the admission policy; nil means admit-all, and every
	// admission branch below is guarded on it so nil runs are
	// bit-identical to the pre-admission cache.
	adm AdmissionPolicy
	// ring stages rejected fetches (nil when adm is nil).
	ring *bypassRing
	// ringStamp orders ring entries for LRU eviction.
	ringStamp uint64
	// bypassFetch marks in-flight fetches the policy rejected; install
	// routes them into the ring instead of the cache proper.
	bypassFetch map[mem.PageNum]bool

	Accesses   stats.Ratio
	Evictions  stats.Counter
	DirtyWB    stats.Counter
	Installs   stats.Counter
	MergedMiss stats.Counter
	// Admission counter family: fetches the policy diverted to the bypass
	// ring, accesses served from the ring, and dirty ring evictions
	// written back to flash.
	AdmBypassed   stats.Counter
	BypassHits    stats.Counter
	BypassDirtyWB stats.Counter
	// Fault-path counter family: reads BC re-issued (after a timeout or an
	// uncorrectable), watchdog firings, uncorrectable completions observed,
	// and exhausted-retry fallbacks served from the FTL's recovered copy.
	FlashRetries       stats.Counter
	FlashTimeouts      stats.Counter
	FlashUncorrectable stats.Counter
	FlashFallbacks     stats.Counter
	HitLat             *stats.Histogram
	MissLat            *stats.Histogram // miss-signal turnaround, not the flash wait
	RefillLat          *stats.Histogram // request to page-installed
}

// New builds the cache over the given DRAM and flash devices.
func New(eng *sim.Engine, cfg Config, dev *dram.Device, fl *flash.Device) *Cache {
	if cfg.Pages == 0 || cfg.Ways <= 0 || cfg.Pages%uint64(cfg.Ways) != 0 {
		panic(fmt.Sprintf("dramcache: capacity %d pages not divisible into %d ways", cfg.Pages, cfg.Ways))
	}
	nsets := int(cfg.Pages / uint64(cfg.Ways))
	c := &Cache{
		cfg:       cfg,
		eng:       eng,
		dram:      dev,
		flash:     fl,
		nsets:     nsets,
		msr:       NewMSR(cfg.MSRSets, cfg.MSRWays),
		msrRow:    dev.RowOf(nsets), // the row after the last set
		waiters:   make(map[mem.PageNum][]waiter),
		pinned:    make(map[mem.PageNum]int),
		fpPending: make(map[mem.PageNum]bool),
		fpFirst:   make(map[mem.PageNum]mem.Addr),
		HitLat:    stats.NewHistogram(),
		MissLat:   stats.NewHistogram(),
		RefillLat: stats.NewHistogram(),
	}
	c.lines = make([]line, nsets*cfg.Ways)
	adm, err := NewAdmissionPolicy(cfg.Admission)
	if err != nil {
		panic(err.Error())
	}
	if adm != nil {
		c.adm = adm
		c.ring = newBypassRing(cfg.Admission.BypassPages)
		c.bypassFetch = make(map[mem.PageNum]bool)
	}
	return c
}

// set returns the ways of set i as a subslice of the flat line store.
func (c *Cache) set(i int) []line {
	return c.lines[i*c.cfg.Ways : (i+1)*c.cfg.Ways]
}

func (c *Cache) setOf(p mem.PageNum) int {
	h := uint64(p) * 0x9e3779b97f4a7c15
	return int(h>>32) % c.nsets
}

// lineOf returns page p's resident line, or nil.
func (c *Cache) lineOf(p mem.PageNum) *line {
	s := c.set(c.setOf(p))
	for w := range s {
		if s[w].valid && s[w].page == p {
			return &s[w]
		}
	}
	return nil
}

// Contains reports whether page p is resident (no timing, no LRU update).
func (c *Cache) Contains(p mem.PageNum) bool { return c.lineOf(p) != nil }

// newLine returns the line that installs page p now, carrying p's pins;
// the pin map is probed only while some page is pinned.
func (c *Cache) newLine(p mem.PageNum) line {
	l := line{page: p, valid: true, lru: c.stamp, installed: c.stamp}
	if len(c.pinned) > 0 {
		l.pins = uint32(c.pinned[p])
	}
	return l
}

// Preload installs page p without timing, for warm-start experiments.
func (c *Cache) Preload(p mem.PageNum) {
	if c.Contains(p) {
		return
	}
	s := c.set(c.setOf(p))
	c.stamp++
	for w := range s {
		if !s[w].valid {
			s[w] = c.newLine(p)
			return
		}
	}
	// Evict silently during preload.
	w := c.pickVictim(s, false)
	s[w] = c.newLine(p)
}

// AccessSync is the FC entry point (Section IV-B1): one data request from
// the on-chip hierarchy. FC opens the set's row, reads the tag column, and
// on a hit transfers the requested 64 B block; on a miss it hands the page
// to BC and sends a miss reply. The probe, set update, and any miss
// machinery (MSR allocate, victim prep, flash fetch) all happen now; the
// returned Result says whether the access hit and when the reply (hit
// data or miss signal) reaches the requester, which schedules its own
// reply event for that instant.
func (c *Cache) AccessSync(a mem.Access) Result {
	now := c.eng.Now()
	p := a.Page()
	setIdx := c.setOf(p)
	row := c.dram.RowOf(setIdx)

	// RAS + CAS for the tag column.
	tagDone := c.dram.Access(now, row, 1)
	replyAt := tagDone + c.cfg.FCOpNs

	s := c.set(setIdx)
	for w := range s {
		if s[w].valid && s[w].page == p {
			if c.fp != nil && !c.fp.fpOnAccess(p, a.Addr) {
				// Footprint underprediction: the page is resident but
				// this block was not fetched. Signal a miss and fetch
				// the block from flash (Section II-A's bandwidth/
				// latency trade).
				c.Accesses.Miss()
				missAt := replyAt + c.cfg.FCOpNs
				c.MissLat.Record(missAt - now)
				c.fetchUnderpredicted(p, missAt)
				return Result{Hit: false, At: missAt}
			}
			// Hit: a further CAS fetches the requested block.
			c.stamp++
			s[w].lru = c.stamp
			if a.Write {
				s[w].dirty = true
			}
			dataDone := c.dram.Access(tagDone, row, 1)
			at := dataDone + c.cfg.FCOpNs
			c.Accesses.Hit()
			c.HitLat.Record(at - now)
			if c.adm != nil {
				c.adm.OnAccess(p, a.Write, true)
			}
			return Result{Hit: true, At: at}
		}
	}

	if c.adm != nil {
		if i := c.ring.lookup(p); i >= 0 {
			// The page is staged in BC's bypass ring: FC's tag probe
			// missed, but BC serves the block with one more CAS against
			// its staging row — a hit, slightly slower than a set hit.
			e := &c.ring.entries[i]
			c.ringStamp++
			e.stamp = c.ringStamp
			e.hits++
			if a.Write {
				e.dirty = true
			}
			dataDone := c.dram.Access(tagDone, c.msrRow, 1)
			at := dataDone + c.cfg.BCOpNs
			c.Accesses.Hit()
			c.BypassHits.Inc()
			c.HitLat.Record(at - now)
			c.adm.OnAccess(p, a.Write, true)
			return Result{Hit: true, At: at}
		}
		c.adm.OnAccess(p, a.Write, false)
	}

	// Miss: notify BC, then send the miss reply to the requester
	// (Section IV-C1's ECC-style signal).
	c.Accesses.Miss()
	missAt := replyAt + c.cfg.FCOpNs
	c.MissLat.Record(missAt - now)
	if c.fp != nil {
		if _, ok := c.fpFirst[p]; !ok {
			c.fpFirst[p] = a.Addr
		}
	}
	c.handleMiss(p, a.Write, missAt)
	return Result{Hit: false, At: missAt}
}

// Pin increments page p's pin count: pinned pages are skipped during
// victim selection, modeling the OS page reference a fault path holds
// until the faulting task consumes the page.
func (c *Cache) Pin(p mem.PageNum) {
	c.pinned[p]++
	if l := c.lineOf(p); l != nil {
		l.pins++
	}
}

// Unpin releases one pin on p.
func (c *Cache) Unpin(p mem.PageNum) {
	if l := c.lineOf(p); l != nil && l.pins > 0 {
		l.pins--
	}
	if c.pinned[p] <= 1 {
		delete(c.pinned, p)
		return
	}
	c.pinned[p]--
}

// Touch refreshes page p's recency without timing: the system layer
// calls it on on-chip hits so the replacement policy sees real reuse.
// At paper scale (2M sets) hot pages are never LRU victims even though
// the DRAM cache itself only observes LLC misses; a scaled-down cache
// must preserve that property explicitly or super-hot pages whose
// traffic the LLC absorbs would churn through flash. The LLC is
// non-inclusive of the DRAM cache, so an on-chip hit can name a page the
// DRAM cache has evicted; Touch leaves such a page absent and counts
// nothing.
func (c *Cache) Touch(p mem.PageNum) {
	if l := c.lineOf(p); l != nil {
		c.stamp++
		l.lru = c.stamp
		return
	}
	if c.adm != nil {
		if i := c.ring.lookup(p); i >= 0 {
			c.ringStamp++
			c.ring.entries[i].stamp = c.ringStamp
		}
	}
}

// MarkDirty marks page p dirty if resident (LLC writeback absorption);
// absent pages are ignored — the rare writeback racing an eviction is
// forwarded straight to flash by the system layer. It reports residency.
func (c *Cache) MarkDirty(p mem.PageNum) bool {
	if l := c.lineOf(p); l != nil {
		l.dirty = true
		return true
	}
	if c.adm != nil {
		if i := c.ring.lookup(p); i >= 0 {
			c.ring.entries[i].dirty = true
			return true
		}
	}
	return false
}

// AccessAlwaysHitSync prices a hit-path access (tag probe plus data
// transfer) regardless of contents: the DRAM-only baseline, where the
// whole dataset is DRAM-resident.
func (c *Cache) AccessAlwaysHitSync(a mem.Access) Result {
	now := c.eng.Now()
	setIdx := c.setOf(a.Page())
	row := c.dram.RowOf(setIdx)
	tagDone := c.dram.Access(now, row, 1)
	dataDone := c.dram.Access(tagDone, row, 1)
	at := dataDone + c.cfg.FCOpNs
	c.Accesses.Hit()
	c.HitLat.Record(at - now)
	return Result{Hit: true, At: at}
}

// OnPageReady registers fn(arg, at) to run when page p is installed (or,
// under footprint fetching, when its pending secondary block fetch
// completes), with at the time the page became ready. If the page is
// fully ready the call runs on the next event boundary. Hot-path callers
// pass a package-level fn and a pointer arg, so registering allocates
// nothing; per-registration state lives in arg.
func (c *Cache) OnPageReady(p mem.PageNum, fn func(arg any, at sim.Time), arg any) {
	ready := c.Contains(p)
	if !ready && c.adm != nil {
		// A page staged in the bypass ring serves accesses (a retry will
		// hit), so it is ready even though the cache proper misses it.
		ready = c.ring.lookup(p) >= 0
	}
	ws, ok := c.waiters[p]
	if !ok {
		ws = c.newWaiters()
	}
	c.waiters[p] = append(ws, waiter{fn: fn, arg: arg})
	if ready && !c.fpPending[p] {
		// A ready page has no other waiters: install took them.
		c.wake(p, c.eng.Now())
	}
}

// fetchUnderpredicted brings an unfetched block of a resident page in
// from flash and wakes waiters when it lands.
func (c *Cache) fetchUnderpredicted(p mem.PageNum, at sim.Time) {
	if c.fpPending[p] {
		return // a secondary fetch is already in flight
	}
	c.fpPending[p] = true
	f := c.newFetch(p, 0)
	f.issued = at
	c.schedule(at, blockLaunchEvent, f)
}

// blockLaunch issues a footprint block fetch's flash read.
func (c *Cache) blockLaunch(f *fetch) {
	f.res = c.flash.ReadPage(f.p)
	c.schedule(f.res.At, blockReadEvent, f)
}

// blockRead lands a footprint block fetch: one block write into the
// page's row, then the waiters wake. An uncorrectable read is first
// reconstructed from the FTL's redundancy.
func (c *Cache) blockRead(f *fetch) {
	if f.res.Err != nil {
		f.res = flash.ReadResult{At: c.flash.ReadRecovered(f.p)}
		c.schedule(f.res.At, blockReadEvent, f)
		return
	}
	p, arrive := f.p, f.res.At
	row := c.dram.RowOf(c.setOf(p))
	wrDone := c.dram.Access(arrive, row, 1) + c.cfg.BCOpNs
	c.fetchSpan(p, obs.StageFlashRead, f.issued, arrive)
	c.fetchSpan(p, obs.StageFill, arrive, wrDone)
	c.endFetch(p)
	delete(c.fpPending, p)
	c.wake(p, wrDone)
}

// handleMiss is the BC path (Section IV-B2): probe the MSR for a
// duplicate, allocate an entry, fetch the page from flash, stage the
// victim, and install on arrival.
func (c *Cache) handleMiss(p mem.PageNum, write bool, at sim.Time) {
	// One CAS to probe the MSR row plus BC occupancy.
	probeDone := c.dram.Access(at, c.msrRow, 1) + c.cfg.BCOpNs
	c.fetchSpan(p, obs.StageMSRProbe, at, probeDone)

	switch c.msr.Allocate(p) {
	case AllocDup:
		// A fetch is already in flight; this requester will be woken by
		// the same install.
		c.MergedMiss.Inc()
		return
	case AllocFull:
		// No free entry: BC waits for pending requests to drain and
		// retries; the miss is queued in arrival order.
		c.msrWait = append(c.msrWait, msrWaiter{page: p, write: write, at: probeDone})
		return
	case AllocNew:
	}
	c.launchFetch(p, write, probeDone)
}

// launchFetch issues the flash read and prepares the victim. When the
// admission policy rejects the page, no victim is prepared — the fetch is
// flagged to land in the bypass ring, so the reject costs residents
// nothing.
func (c *Cache) launchFetch(p mem.PageNum, write bool, at sim.Time) {
	f := c.newFetch(p, c.eng.Now())
	f.write = write
	c.schedule(at, launchEvent, f)
}

// launch runs at a fetch's start time: admission or victim staging, then
// the first flash read.
func (c *Cache) launch(f *fetch) {
	if c.adm != nil && !c.adm.Admit(f.p, f.write) {
		c.bypassFetch[f.p] = true
		c.AdmBypassed.Inc()
	} else {
		// Victim selection and copy to the evict buffer proceed during
		// the flash access (off the critical path, Section IV-B2).
		c.prepareVictim(f.p)
	}
	c.fetchFromFlash(f.p, f.reqTime, 0)
}

// fetchFromFlash issues one flash read attempt for p, arming BC's
// watchdog when configured. An uncorrectable completion or a watchdog
// firing re-issues the read (the device remaps uncorrectable pages, so a
// retry targets fresh cells) up to cfg.FlashReadRetries times; exhausted
// retries fall back to the FTL's recovered copy, which cannot fail. With
// faults off and no watchdog this reduces to exactly one read. The
// attempt's record is shared by its read and watchdog events: whichever
// fires first settles the attempt, the other finds it settled.
func (c *Cache) fetchFromFlash(p mem.PageNum, reqTime sim.Time, attempt int) {
	f := c.newFetch(p, reqTime)
	f.attempt = attempt
	f.issued = c.eng.Now()
	f.stage = obs.StageFlashRead
	if attempt > 0 {
		f.stage = obs.StageFlashRetry
	}
	if c.cfg.FlashReadTimeoutNs > 0 {
		c.schedule(f.issued+c.cfg.FlashReadTimeoutNs, watchdogEvent, f)
	}
	f.res = c.flash.ReadPage(p)
	c.schedule(f.res.At, readEvent, f)
}

// readDone settles a read attempt when its completion arrives first.
func (c *Cache) readDone(f *fetch) {
	if f.settled {
		return // the watchdog already re-issued; drop the late arrival
	}
	f.settled = true
	if f.res.Err != nil {
		c.FlashUncorrectable.Inc()
		c.fetchSpan(f.p, f.stage, f.issued, c.eng.Now())
		c.retryOrFallback(f.p, f.reqTime, f.attempt)
		return
	}
	c.fetchSpan(f.p, f.stage, f.issued, f.res.At)
	c.install(f.p, f.res.At, f.reqTime)
}

// watchdogFired settles a read attempt that has not completed in time.
func (c *Cache) watchdogFired(f *fetch) {
	if f.settled {
		return
	}
	f.settled = true
	c.FlashTimeouts.Inc()
	c.fetchSpan(f.p, f.stage, f.issued, c.eng.Now())
	c.retryOrFallback(f.p, f.reqTime, f.attempt)
}

// retryOrFallback re-issues a failed or timed-out read, or serves the
// miss from the FTL's recovered copy once the retry budget is spent.
func (c *Cache) retryOrFallback(p mem.PageNum, reqTime sim.Time, attempt int) {
	if attempt < c.cfg.FlashReadRetries {
		c.FlashRetries.Inc()
		c.fetchFromFlash(p, reqTime, attempt+1)
		return
	}
	c.FlashFallbacks.Inc()
	f := c.newFetch(p, reqTime)
	f.issued = c.eng.Now()
	c.schedule(c.flash.ReadRecovered(p), recoveredEvent, f)
}

// recovered installs a miss served from the FTL's recovered copy.
func (c *Cache) recovered(f *fetch) {
	at := c.eng.Now()
	c.fetchSpan(f.p, obs.StageFlashFallback, f.issued, at)
	c.install(f.p, at, f.reqTime)
}

// prepareVictim ensures the set has a free way by staging the LRU page in
// the evict buffer and, if dirty, writing it back to flash.
func (c *Cache) prepareVictim(p mem.PageNum) {
	s := c.set(c.setOf(p))
	for w := range s {
		if !s[w].valid {
			return // free way exists
		}
	}
	lru := c.pickVictim(s, true)
	if lru < 0 {
		// Every way is pinned; fall back ignoring pins (the OS would
		// block the allocation, but a scaled cache cannot).
		lru = c.pickVictim(s, false)
	}
	victim := s[lru]
	if c.fp != nil {
		c.fp.fpOnEvict(victim.page)
	}
	if c.adm != nil {
		// A victim whose last touch is its install stamp was never reused:
		// its install bought nothing, and the policy should learn that.
		c.adm.OnEvict(victim.page, victim.lru != victim.installed)
	}
	// Read the victim page out of the DRAM row into the evict buffer.
	row := c.dram.RowOf(c.setOf(p))
	c.dram.Access(c.eng.Now(), row, dram.BlocksPerPage)
	s[lru].valid = false
	c.Evictions.Inc()
	c.evictBuf++
	if victim.dirty {
		c.DirtyWB.Inc()
		c.eng.AtFunc(c.flash.WritePage(victim.page), writebackDoneEvent, c)
	} else {
		c.evictBuf--
	}
}

// pickVictim selects the victim way under the configured policy,
// skipping pinned pages when honorPins is set. It returns -1 when every
// candidate is pinned.
func (c *Cache) pickVictim(s []line, honorPins bool) int {
	keyOf := func(w int) uint64 {
		switch c.cfg.Replacement {
		case ReplFIFO:
			return s[w].installed
		case ReplRandom:
			// Deterministic hash of page and stamp: stable within a
			// decision, varying across decisions.
			return (uint64(s[w].page) ^ c.stamp) * 0x9e3779b97f4a7c15
		default:
			return s[w].lru
		}
	}
	best := -1
	var bestKey uint64
	for w := range s {
		if honorPins && s[w].pins > 0 {
			continue
		}
		k := keyOf(w)
		if best < 0 || k < bestKey {
			best, bestKey = w, k
		}
	}
	return best
}

// install writes the arrived page into its set, completes the MSR entry,
// wakes waiters, and admits any miss that was stalled on a full MSR set.
func (c *Cache) install(p mem.PageNum, at sim.Time, reqTime sim.Time) {
	if c.adm != nil && c.bypassFetch[p] {
		delete(c.bypassFetch, p)
		c.installBypass(p, at, reqTime)
		return
	}
	setIdx := c.setOf(p)
	row := c.dram.RowOf(setIdx)
	// Page write into the row: RAS + block bursts, plus tag update. With
	// footprint fetching only the predicted blocks transfer.
	blocks := dram.BlocksPerPage
	if c.fp != nil {
		first, ok := c.fpFirst[p]
		if !ok {
			first = mem.PageBase(p)
		}
		delete(c.fpFirst, p)
		blocks = c.fp.fpOnInstall(p, first)
	}
	wrDone := c.dram.Access(at, row, blocks+1) + c.cfg.BCOpNs

	s := c.set(setIdx)
	c.stamp++
	installed := false
	for w := range s {
		if !s[w].valid {
			s[w] = c.newLine(p)
			installed = true
			break
		}
	}
	if !installed {
		// The set filled up again between victim prep and arrival
		// (competing installs); evict again, synchronously this time.
		c.prepareVictim(p)
		for w := range s {
			if !s[w].valid {
				s[w] = c.newLine(p)
				installed = true
				break
			}
		}
	}
	if !installed {
		panic("dramcache: no way free after eviction")
	}
	c.Installs.Inc()
	c.msr.Complete(p)
	c.RefillLat.Record(wrDone - reqTime)
	c.fetchSpan(p, obs.StageFill, at, wrDone)
	c.endFetch(p)

	c.wake(p, wrDone)

	// Admit one stalled miss now that an MSR entry is free.
	c.drainMSRWait(wrDone)
}

// installBypass lands a rejected fetch in the bypass ring: one page write
// into BC's staging row, no resident victim, no Installs count. Ring
// overflow evicts the ring's LRU unpinned entry, writing it back to flash
// if it was dirtied while staged; when every entry is pinned the ring
// grows past capacity (forward progress over footprint on a scaled
// cache).
func (c *Cache) installBypass(p mem.PageNum, at sim.Time, reqTime sim.Time) {
	delete(c.fpFirst, p)
	wrDone := c.dram.Access(at, c.msrRow, dram.BlocksPerPage+1) + c.cfg.BCOpNs

	if c.ring.lookup(p) < 0 {
		if len(c.ring.entries) >= c.ring.cap {
			if v := c.ring.victim(c.pinned); v >= 0 {
				e := c.ring.removeAt(v)
				c.adm.OnEvict(e.page, e.hits > 0)
				if e.dirty {
					c.BypassDirtyWB.Inc()
					c.eng.AtFunc(c.flash.WritePage(e.page), flash.NopDone, nil)
				}
			}
		}
		c.ringStamp++
		c.ring.entries = append(c.ring.entries, ringEntry{page: p, stamp: c.ringStamp})
		c.ring.idx[p] = len(c.ring.entries) - 1
	}

	c.msr.Complete(p)
	c.RefillLat.Record(wrDone - reqTime)
	c.fetchSpan(p, obs.StageFill, at, wrDone)
	c.endFetch(p)

	c.wake(p, wrDone)
	c.drainMSRWait(wrDone)
}

// drainMSRWait retries queued misses that previously found their MSR set
// full. Entries whose set is still full stay queued, filtered in place.
func (c *Cache) drainMSRWait(at sim.Time) {
	rest := c.msrWait[:0]
	for _, w := range c.msrWait {
		switch c.msr.Allocate(w.page) {
		case AllocNew:
			c.fetchSpan(w.page, obs.StageMSRWait, w.at, at)
			c.launchFetch(w.page, w.write, at)
		case AllocDup:
			c.fetchSpan(w.page, obs.StageMSRWait, w.at, at)
			c.MergedMiss.Inc()
		case AllocFull:
			rest = append(rest, w)
		}
	}
	c.msrWait = rest
}

// PendingMisses returns the number of in-flight fetches plus queued
// misses, for saturation diagnostics.
func (c *Cache) PendingMisses() int { return c.msr.Outstanding() + len(c.msrWait) }

// CheckInvariants validates that no page is resident twice, each
// resident line's pin count equals the page's entry in the pin map, each
// MSR entry sits in its page's set and no set tracks a page twice, and
// every waiter page is actually missing or awaiting a footprint block.
// It returns "" when consistent.
func (c *Cache) CheckInvariants() string {
	seen := make(map[mem.PageNum]bool)
	for si := 0; si < c.nsets; si++ {
		for _, l := range c.set(si) {
			if !l.valid {
				continue
			}
			if seen[l.page] {
				return fmt.Sprintf("page %d resident twice", l.page)
			}
			if c.setOf(l.page) != si {
				return fmt.Sprintf("page %d in wrong set %d", l.page, si)
			}
			if int(l.pins) != c.pinned[l.page] {
				return fmt.Sprintf("page %d line pins %d, pin map %d", l.page, l.pins, c.pinned[l.page])
			}
			seen[l.page] = true
		}
	}
	if msg := c.msr.check(); msg != "" {
		return msg
	}
	for p := range c.waiters {
		// A footprint block fetch leaves waiters on a resident page.
		if seen[p] && !c.msr.Lookup(p) && !c.fpPending[p] {
			return fmt.Sprintf("waiters registered for resident page %d", p)
		}
	}
	if c.adm != nil {
		for p, i := range c.ring.idx {
			if seen[p] {
				return fmt.Sprintf("page %d in both cache and bypass ring", p)
			}
			if i >= len(c.ring.entries) || c.ring.entries[i].page != p {
				return fmt.Sprintf("bypass ring index inconsistent for page %d", p)
			}
		}
	}
	return ""
}
