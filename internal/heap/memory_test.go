package heap

import (
	"errors"
	"testing"
)

func TestMemoryMapAndAccess(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map("a", 100, 10, true); err != nil {
		t.Fatal(err)
	}
	m.MustWrite(105, 42)
	if got := m.MustRead(105); got != 42 {
		t.Fatalf("read back %d", got)
	}
}

func TestMemoryFaults(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map("rw", 100, 10, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("ro", 200, 10, false); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Read(50); err == nil {
		t.Fatal("unmapped read must fault")
	} else {
		var f *Fault
		if !errors.As(err, &f) || f.Kind != AccessRead || f.Addr != 50 {
			t.Fatalf("wrong fault %v", err)
		}
	}
	if err := m.Write(250, 1); err == nil {
		t.Fatal("unmapped write must fault")
	}
	if err := m.Write(205, 1); err == nil {
		t.Fatal("read-only write must fault")
	}
	if _, err := m.Read(205); err != nil {
		t.Fatalf("read-only read must succeed: %v", err)
	}
}

func TestMemoryOverlapRejected(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map("a", 100, 10, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("b", 105, 10, true); err == nil {
		t.Fatal("overlap must be rejected")
	}
	if _, err := m.Map("c", 110, 10, true); err != nil {
		t.Fatalf("adjacent region must be accepted: %v", err)
	}
	if _, err := m.Map("d", 100, 0, true); err == nil {
		t.Fatal("empty region must be rejected")
	}
}

func TestRegionAt(t *testing.T) {
	m := NewMemory()
	r, err := m.Map("a", 100, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.RegionAt(100) != r || m.RegionAt(109) != r {
		t.Fatal("RegionAt misses region bounds")
	}
	if m.RegionAt(110) != nil || m.RegionAt(99) != nil {
		t.Fatal("RegionAt matches outside region")
	}
}
