package color

import (
	"syscall"
	"testing"
)

// guardedPage returns a page of memory with an inaccessible page on
// either side, so any load or store just outside it faults.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	ps := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[:ps], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[2*ps:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	page := mem[ps : 2*ps : 2*ps]
	for i := range page {
		page[i] = byte(i * 7)
	}
	return page
}

// TestRowKernelsGuardPages runs each kernel on rows that start right
// after, or end right before, an inaccessible page: a load before the
// input rows or past their ends, or a store outside the output row,
// crashes the test. The sentinel tests pin stores; this pins loads.
func TestRowKernelsGuardPages(t *testing.T) {
	y, cb, cr, dst := guardedPage(t), guardedPage(t), guardedPage(t), guardedPage(t)
	ps := len(y)
	widths := []int{1021}
	for w := 1; w <= 64; w++ {
		widths = append(widths, w)
	}
	at := func(page []byte, n int, end bool) []byte {
		if end {
			return page[ps-n:]
		}
		return page[:n:n]
	}
	for _, w := range widths {
		for _, end := range []bool{false, true} {
			ConvertRow(at(y, w, end), at(cb, w, end), at(cr, w, end), at(dst, 3*w, end), w)
			UpsampleRowH2V1Fancy(at(cb, w, end), at(dst, 2*w, end))
			UpsampleRowH2V2Fancy(at(cb, w, end), at(cr, w, end), at(dst, 2*w, end))
		}
	}
}
