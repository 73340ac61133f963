package simmem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1 << 16)
	prop := func(off uint16, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr := Base + uint64(off)
		m.Store(addr, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*uint(size)) - 1)
		}
		return m.Load(addr, size) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLittleEndian(t *testing.T) {
	m := New(1 << 12)
	m.Store(Base, 4, 0x11223344)
	if m.Load(Base, 1) != 0x44 || m.Load(Base+3, 1) != 0x11 {
		t.Fatal("not little-endian")
	}
}

func TestBytesHelpers(t *testing.T) {
	m := New(1 << 12)
	m.WriteBytes(Base+16, []byte{1, 2, 3, 4})
	got := m.ReadBytes(Base+16, 4)
	if got[0] != 1 || got[3] != 4 {
		t.Fatal("WriteBytes/ReadBytes mismatch")
	}
	m.WriteUint32s(Base+32, []uint32{0xaabbccdd, 0x11223344})
	ws := m.ReadUint32s(Base+32, 2)
	if ws[0] != 0xaabbccdd || ws[1] != 0x11223344 {
		t.Fatal("WriteUint32s/ReadUint32s mismatch")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(1 << 12)
	cases := []func(){
		func() { m.Load(0, 8) },                     // below Base
		func() { m.Load(Base+uint64(m.Size()), 1) }, // past the end
		func() { m.Store(Base, 3, 0) },              // bad size
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// TestPageStraddle checks every access size at every offset that crosses
// a page boundary, against a byte-by-byte reference.
func TestPageStraddle(t *testing.T) {
	m := New(4 * PageSize)
	edge := uint64(Base + 2*PageSize)
	for _, size := range []int{1, 2, 4, 8} {
		for start := edge - uint64(size) + 1; start < edge; start++ {
			v := 0x0807060504030201 * uint64(start&0xff|1)
			m.Store(start, size, v)
			want := v
			if size < 8 {
				want &= 1<<(8*uint(size)) - 1
			}
			if got := m.Load(start, size); got != want {
				t.Errorf("size %d at %#x: Load %#x, want %#x", size, start, got, want)
			}
			for i := 0; i < size; i++ {
				if b := m.Load(start+uint64(i), 1); b != want>>(8*i)&0xff {
					t.Errorf("size %d at %#x: byte %d is %#x, want %#x", size, start, i, b, want>>(8*i)&0xff)
				}
			}
		}
	}
}

// TestBytesAcrossPages copies a run spanning three pages in and out, and
// reads it back through loads on both sides of each boundary.
func TestBytesAcrossPages(t *testing.T) {
	m := New(8 * PageSize)
	p := make([]byte, 2*PageSize+100)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	addr := uint64(Base + PageSize - 50)
	m.WriteBytes(addr, p)
	got := m.ReadBytes(addr, len(p))
	for i := range p {
		if got[i] != p[i] {
			t.Fatalf("byte %d: read %#x, wrote %#x", i, got[i], p[i])
		}
	}
	for _, edge := range []uint64{Base + PageSize, Base + 2*PageSize, Base + 3*PageSize} {
		if v, want := m.Load(edge-1, 1), uint64(p[edge-1-addr]); v != want {
			t.Errorf("byte before %#x: %#x, want %#x", edge, v, want)
		}
		if v, want := m.Load(edge, 1), uint64(p[edge-addr]); v != want {
			t.Errorf("byte at %#x: %#x, want %#x", edge, v, want)
		}
	}
	if m.Load(addr-1, 1) != 0 || m.Load(addr+uint64(len(p)), 1) != 0 {
		t.Error("bytes outside the written run are not zero")
	}
	if r := m.Resident(); r != 4*PageSize {
		t.Errorf("resident %d bytes after writing into 4 pages, want %d", r, 4*PageSize)
	}
}

// TestUnwrittenPagesReadZero checks that loads and reads of pages never
// written return zeros and allocate no backing storage.
func TestUnwrittenPagesReadZero(t *testing.T) {
	m := New(DefaultSize)
	if r := m.Resident(); r != 0 {
		t.Fatalf("fresh arena holds %d bytes, want 0", r)
	}
	for _, size := range []int{1, 2, 4, 8} {
		for _, addr := range []uint64{Base, Base + PageSize - 3, Base + DefaultSize - 8} {
			if v := m.Load(addr, size); v != 0 {
				t.Errorf("Load(%#x, %d) = %#x on a fresh arena", addr, size, v)
			}
		}
	}
	for i, b := range m.ReadBytes(Base+100, 3*PageSize) {
		if b != 0 {
			t.Fatalf("ReadBytes byte %d = %#x on a fresh arena", i, b)
		}
	}
	if r := m.Resident(); r != 0 {
		t.Fatalf("reads allocated %d bytes, want 0", r)
	}
	m.Store(Base+5*PageSize+8, 8, ^uint64(0))
	if r := m.Resident(); r != PageSize {
		t.Fatalf("one store holds %d bytes, want one page (%d)", r, PageSize)
	}
	if m.Load(Base+5*PageSize, 8) != 0 || m.Load(Base+6*PageSize, 8) != 0 {
		t.Error("a store leaked into its neighbours")
	}
}

// TestOutOfArenaPanicsAtEveryWidth checks the arena bounds for each
// access kind at both ends, including accesses that start inside and end
// past the last byte.
func TestOutOfArenaPanicsAtEveryWidth(t *testing.T) {
	m := New(3*PageSize + 100)
	end := Base + uint64(m.Size())
	var cases []func()
	for _, size := range []int{1, 2, 4, 8} {
		size := size
		cases = append(cases,
			func() { m.Load(Base-1, size) },
			func() { m.Load(end-uint64(size)+1, size) },
			func() { m.Store(Base-uint64(size), size, 0) },
			func() { m.Store(end-uint64(size)+1, size, 0) },
		)
	}
	cases = append(cases,
		func() { m.WriteBytes(end-2, []byte{1, 2, 3}) },
		func() { m.ReadBytes(end-2, 3) },
		func() { m.Load(^uint64(0)-3, 8) }, // wraps around the address space
		func() { m.Load(Base, 16) },        // bad size
	)
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
	// The last byte of the arena is still reachable at every width.
	for _, size := range []int{1, 2, 4, 8} {
		m.Store(end-uint64(size), size, 0xff)
		if m.Load(end-uint64(size), size) != 0xff {
			t.Errorf("size %d at the arena's end does not round-trip", size)
		}
	}
}
