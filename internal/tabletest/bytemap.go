package tabletest

import (
	"encoding/binary"

	"dramhit/internal/table"
)

// ByteAPI is the byte-string surface a bucket-layout front end serves on one
// goroutine: dramhit.Handle, or a dramhitp WriteHandle and ReadHandle
// together.
type ByteAPI interface {
	GetBytes(key []byte) ([]byte, bool)
	PutBytes(key, value []byte) (existed, ok bool)
	UpsertBytes(key []byte, fn func(old []byte, present bool) (nv []byte, store bool)) (existed, ok bool)
	DeleteBytes(key []byte) bool
}

// ByteMap runs a bucket table's byte API as a table.Map, every uint64 key and
// value as its 8-byte little-endian encoding, so the suite and the fuzzer
// reach the front ends' byte paths — the only API a bucket table serves.
// Clones get their own handles from newAPI.
type ByteMap struct {
	api           ByteAPI
	newAPI        func() ByteAPI
	length, capac func() int
}

// NewByteMap adapts the table whose per-goroutine byte API newAPI builds and
// whose size length and capacity report.
func NewByteMap(newAPI func() ByteAPI, length, capacity func() int) *ByteMap {
	return &ByteMap{api: newAPI(), newAPI: newAPI, length: length, capac: capacity}
}

// Clone implements Cloner.
func (m *ByteMap) Clone() table.Map {
	c := *m
	c.api = m.newAPI()
	return &c
}

func le(v uint64) [8]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b
}

// Get implements table.Map.
func (m *ByteMap) Get(key uint64) (uint64, bool) {
	kb := le(key)
	v, ok := m.api.GetBytes(kb[:])
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v), true
}

// Put implements table.Map. A bucket table grows, so it reports full only
// when its arena has no room for the record.
func (m *ByteMap) Put(key, value uint64) bool {
	kb, vb := le(key), le(value)
	_, ok := m.api.PutBytes(kb[:], vb[:])
	return ok
}

// Upsert implements table.Map with the engine's read-modify-write, so racing
// upserts of one key never lose an increment.
func (m *ByteMap) Upsert(key, delta uint64) (uint64, bool) {
	kb := le(key)
	var res uint64
	var vb [8]byte
	_, ok := m.api.UpsertBytes(kb[:], func(old []byte, present bool) ([]byte, bool) {
		res = delta
		if present {
			res += binary.LittleEndian.Uint64(old)
		}
		binary.LittleEndian.PutUint64(vb[:], res)
		return vb[:], true
	})
	return res, ok
}

// Delete implements table.Map.
func (m *ByteMap) Delete(key uint64) bool {
	kb := le(key)
	return m.api.DeleteBytes(kb[:])
}

// Len implements table.Map.
func (m *ByteMap) Len() int { return m.length() }

// Cap implements table.Map.
func (m *ByteMap) Cap() int { return m.capac() }
