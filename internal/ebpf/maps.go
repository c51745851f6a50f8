package ebpf

import (
	"cmp"
	"fmt"
	"slices"
)

// MapType enumerates the supported eBPF map flavours.
type MapType int

// Supported map types. SnapBPF uses a hash map to capture working-set
// offsets and array maps to carry the grouped prefetch schedule.
const (
	MapTypeHash MapType = iota
	MapTypeArray
)

func (t MapType) String() string {
	switch t {
	case MapTypeHash:
		return "hash"
	case MapTypeArray:
		return "array"
	}
	return fmt.Sprintf("maptype(%d)", int(t))
}

// Map is a kernel eBPF map holding u64 keys and u64 values. Programs
// reach maps through file-descriptor-like handles registered in their
// VM; userspace (the VMM) accesses them directly via the Go API, which
// models the bpf(2) syscall surface.
type Map struct {
	typ        MapType
	name       string
	maxEntries int

	hash map[uint64]uint64
	arr  []uint64
	set  []bool // arr slot occupancy, so Iterate skips unwritten slots

	// Stats for the overheads experiment: userspace updates model the
	// bpf(2) syscall cost of loading offsets into the kernel.
	UserUpdates int64
	ProgUpdates int64
}

// NewMap creates a map of the given type and capacity.
func NewMap(typ MapType, name string, maxEntries int) (*Map, error) {
	if maxEntries <= 0 {
		return nil, fmt.Errorf("ebpf: map %q: max_entries must be positive", name)
	}
	m := &Map{typ: typ, name: name, maxEntries: maxEntries}
	switch typ {
	case MapTypeHash:
		m.hash = make(map[uint64]uint64)
	case MapTypeArray:
		m.arr = make([]uint64, maxEntries)
		m.set = make([]bool, maxEntries)
	default:
		return nil, fmt.Errorf("ebpf: unknown map type %d", typ)
	}
	return m, nil
}

// MustNewMap is NewMap but panics on error.
func MustNewMap(typ MapType, name string, maxEntries int) *Map {
	m, err := NewMap(typ, name, maxEntries)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the map name.
func (m *Map) Name() string { return m.name }

// Type returns the map type.
func (m *Map) Type() MapType { return m.typ }

// MaxEntries returns the declared capacity.
func (m *Map) MaxEntries() int { return m.maxEntries }

// Len returns the number of present entries.
func (m *Map) Len() int {
	if m.typ == MapTypeHash {
		return len(m.hash)
	}
	n := 0
	for _, s := range m.set {
		if s {
			n++
		}
	}
	return n
}

// Lookup returns the value for key and whether it is present.
func (m *Map) Lookup(key uint64) (uint64, bool) {
	switch m.typ {
	case MapTypeHash:
		v, ok := m.hash[key]
		return v, ok
	case MapTypeArray:
		if key >= uint64(m.maxEntries) {
			return 0, false
		}
		return m.arr[key], m.set[key]
	}
	return 0, false
}

// Update inserts or replaces key's value. Hash maps reject inserts
// beyond max_entries, as the kernel does (E2BIG).
func (m *Map) Update(key, value uint64) error {
	switch m.typ {
	case MapTypeHash:
		if _, exists := m.hash[key]; !exists && len(m.hash) >= m.maxEntries {
			return fmt.Errorf("ebpf: map %q full (%d entries)", m.name, m.maxEntries)
		}
		m.hash[key] = value
	case MapTypeArray:
		if key >= uint64(m.maxEntries) {
			return fmt.Errorf("ebpf: map %q: index %d out of range", m.name, key)
		}
		m.arr[key] = value
		m.set[key] = true
	}
	return nil
}

// Delete removes key; it reports whether the key was present. Array
// map entries cannot be deleted (as in the kernel); Delete zeroes them.
func (m *Map) Delete(key uint64) bool {
	switch m.typ {
	case MapTypeHash:
		_, ok := m.hash[key]
		delete(m.hash, key)
		return ok
	case MapTypeArray:
		if key >= uint64(m.maxEntries) {
			return false
		}
		had := m.set[key]
		m.arr[key] = 0
		m.set[key] = false
		return had
	}
	return false
}

// Clear removes all entries.
func (m *Map) Clear() {
	switch m.typ {
	case MapTypeHash:
		m.hash = make(map[uint64]uint64)
	case MapTypeArray:
		for i := range m.arr {
			m.arr[i] = 0
			m.set[i] = false
		}
	}
}

// Entry is a key/value pair from a map dump.
type Entry struct{ Key, Value uint64 }

// Entries returns all present entries sorted by key, modelling
// userspace iteration with BPF_MAP_GET_NEXT_KEY.
func (m *Map) Entries() []Entry {
	var out []Entry
	switch m.typ {
	case MapTypeHash:
		out = make([]Entry, 0, len(m.hash))
		for k, v := range m.hash {
			out = append(out, Entry{k, v})
		}
		// Keys are unique, so an unstable sort gives one order.
		slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	case MapTypeArray:
		for i, ok := range m.set {
			if ok {
				out = append(out, Entry{uint64(i), m.arr[i]})
			}
		}
	}
	return out
}
