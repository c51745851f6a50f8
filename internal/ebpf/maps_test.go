package ebpf

import (
	"testing"
	"testing/quick"
)

func TestHashMapBasics(t *testing.T) {
	m := MustNewMap(MapTypeHash, "h", 4)
	if _, ok := m.Lookup(1); ok {
		t.Fatal("empty map lookup hit")
	}
	if err := m.Update(1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Lookup(1); !ok || v != 100 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	if err := m.Update(1, 200); err != nil {
		t.Fatal(err) // replace existing never hits capacity
	}
	if v, _ := m.Lookup(1); v != 200 {
		t.Fatalf("update did not replace: %d", v)
	}
	if !m.Delete(1) {
		t.Fatal("delete existing returned false")
	}
	if m.Delete(1) {
		t.Fatal("delete missing returned true")
	}
}

func TestHashMapCapacity(t *testing.T) {
	m := MustNewMap(MapTypeHash, "h", 2)
	if err := m.Update(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(3, 3); err == nil {
		t.Fatal("insert beyond max_entries accepted")
	}
	if err := m.Update(1, 9); err != nil {
		t.Fatalf("replacing at capacity failed: %v", err)
	}
}

func TestArrayMapBasics(t *testing.T) {
	m := MustNewMap(MapTypeArray, "a", 8)
	if _, ok := m.Lookup(3); ok {
		t.Fatal("unwritten slot reported present")
	}
	if err := m.Update(3, 33); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Lookup(3); !ok || v != 33 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	if err := m.Update(8, 1); err == nil {
		t.Fatal("out-of-range array update accepted")
	}
	if _, ok := m.Lookup(100); ok {
		t.Fatal("out-of-range array lookup hit")
	}
}

func TestEntriesSorted(t *testing.T) {
	m := MustNewMap(MapTypeHash, "h", 16)
	for _, k := range []uint64{5, 1, 9, 3} {
		if err := m.Update(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	es := m.Entries()
	if len(es) != 4 {
		t.Fatalf("len = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Key >= es[i].Key {
			t.Fatalf("entries not sorted: %v", es)
		}
	}
}

// A hash map filled in descending key order dumps in ascending order,
// each key with its own value.
func TestEntriesDescendingFill(t *testing.T) {
	const n = 1000
	m := MustNewMap(MapTypeHash, "ws", n)
	for k := uint64(n); k >= 1; k-- {
		if err := m.Update(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	es := m.Entries()
	if len(es) != n {
		t.Fatalf("len = %d, want %d", len(es), n)
	}
	for i, e := range es {
		if want := uint64(i + 1); e.Key != want || e.Value != want*3 {
			t.Fatalf("entry %d = %+v, want {%d %d}", i, e, want, want*3)
		}
	}
}

func TestClear(t *testing.T) {
	for _, typ := range []MapType{MapTypeHash, MapTypeArray} {
		m := MustNewMap(typ, "m", 8)
		if err := m.Update(2, 5); err != nil {
			t.Fatal(err)
		}
		m.Clear()
		if m.Len() != 0 {
			t.Fatalf("%v: Len after clear = %d", typ, m.Len())
		}
		if _, ok := m.Lookup(2); ok {
			t.Fatalf("%v: lookup hit after clear", typ)
		}
	}
}

func TestMapLenProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		m := MustNewMap(MapTypeHash, "h", 1<<20)
		uniq := make(map[uint64]bool)
		for _, k := range keys {
			if err := m.Update(k, 1); err != nil {
				return false
			}
			uniq[k] = true
		}
		return m.Len() == len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(MapTypeHash, "bad", 0); err == nil {
		t.Fatal("zero max_entries accepted")
	}
	if _, err := NewMap(MapType(99), "bad", 8); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestMapTypeString(t *testing.T) {
	if MapTypeHash.String() != "hash" || MapTypeArray.String() != "array" {
		t.Fatal("bad map type strings")
	}
}
