// Package mem provides the address-space vocabulary shared by the whole
// simulator: virtual addresses, 4 KB pages, cache blocks, the Zipfian
// popularity generator used to model datacenter access skew, and the arena
// allocator the workload data structures are built on.
package mem

import "fmt"

// Addr is a virtual (and, for flash-mapped pages, physical) byte address.
type Addr uint64

// PageNum identifies a 4 KB page.
type PageNum uint64

// Geometry constants fixed by the paper's design (Section II-A).
const (
	PageShift  = 12
	PageSize   = 1 << PageShift // 4 KB, the DRAM-cache and flash page size
	BlockShift = 6
	BlockSize  = 1 << BlockShift // 64 B on-chip cache block
)

// PageOf returns the page containing a.
func PageOf(a Addr) PageNum { return PageNum(a >> PageShift) }

// PageBase returns the first address of page p.
func PageBase(p PageNum) Addr { return Addr(p) << PageShift }

// BlockOf returns the 64 B block index of a.
func BlockOf(a Addr) uint64 { return uint64(a) >> BlockShift }

// PagesForBytes returns the number of pages needed to hold n bytes.
func PagesForBytes(n uint64) uint64 { return (n + PageSize - 1) / PageSize }

// String renders the address in hex for diagnostics.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Access is one memory reference emitted by a workload and consumed by
// the memory hierarchy.
type Access struct {
	Addr  Addr
	Write bool
}

// Page returns the page the access touches.
func (a Access) Page() PageNum { return PageOf(a.Addr) }
