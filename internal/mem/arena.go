package mem

import "fmt"

// Arena is a bump allocator over the simulated virtual address space. The
// workload data structures (red-black trees, hash tables, B+-trees, the
// TATP/TPC-C tables) allocate their nodes from an arena, so every node has
// a stable virtual address and traversals emit the exact page-access
// sequence the memory hierarchy sees. The arena never frees; workloads
// model steady-state datasets whose size is fixed for a run, matching the
// paper's methodology.
type Arena struct {
	base Addr
	next Addr
	end  Addr
}

// NewArena returns an arena covering sizeBytes of address space starting
// at base. Allocations beyond the end panic: a workload outgrowing its
// declared dataset is a configuration bug, not a runtime condition.
func NewArena(base Addr, sizeBytes uint64) *Arena {
	return &Arena{base: base, next: base, end: base + Addr(sizeBytes)}
}

// Alloc reserves size bytes aligned to align (a power of two) and returns
// the starting address.
func (a *Arena) Alloc(size, align uint64) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	p := (uint64(a.next) + align - 1) &^ (align - 1)
	if Addr(p)+Addr(size) > a.end {
		panic(fmt.Sprintf("mem: arena exhausted (%d bytes requested, %d free)",
			size, uint64(a.end)-p))
	}
	a.next = Addr(p) + Addr(size)
	return Addr(p)
}

// AllocPage reserves one whole 4 KB page and returns its base address.
func (a *Arena) AllocPage() Addr { return a.Alloc(PageSize, PageSize) }

// Size returns the arena's total capacity in bytes.
func (a *Arena) Size() uint64 { return uint64(a.end - a.base) }

// Pages returns the number of pages the arena spans (its full reserved
// range, which is the dataset footprint the DRAM cache must back).
func (a *Arena) Pages() uint64 { return PagesForBytes(a.Size()) }
