package kvserver

import (
	"bytes"
	"testing"
)

// TestUpsertNumericStaleSeed calls the INCR/DECR core with a seed that no
// longer describes the key, as a write racing the command leaves it: the
// key now holds a non-numeric value, or is absent. Numericness must come
// from the record Mutate replaces, never from the seed, so a non-numeric
// value is stored back unchanged with the error, under either protocol's
// seed. RESP's zero seed re-creates an absent key at delta (redis); a stale
// memcached pre-read re-creates it from the pre-read, the one case left
// open until Mutate can abort.
func TestUpsertNumericStaleSeed(t *testing.T) {
	stale := appendRecord(nil, 7, []byte("5"))
	cases := []struct {
		name        string
		stored      []byte // nil: absent when the command runs
		seed        []byte
		wantNumeric bool
		wantN       uint64
		wantRecord  []byte // nil: still absent
	}{
		{"non-numeric/resp-seed", appendRecord(nil, 3, []byte("abc")), respZeroRecord,
			false, 0, appendRecord(nil, 3, []byte("abc"))},
		{"non-numeric/mc-stale-seed", appendRecord(nil, 3, []byte("abc")), stale,
			false, 0, appendRecord(nil, 3, []byte("abc"))},
		{"absent/resp-seed", nil, respZeroRecord,
			true, 1, appendRecord(nil, 0, []byte("1"))},
		{"absent/mc-stale-seed", nil, stale,
			true, 6, appendRecord(nil, 7, []byte("6"))},
		{"numeric/mc-stale-seed", appendRecord(nil, 3, []byte("41")), stale,
			true, 42, appendRecord(nil, 3, []byte("42"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cn := newConn(startServer(t), nil)
			key := []byte("ctr")
			if tc.stored != nil {
				cn.h.PutBytes(key, tc.stored)
			}
			n, numeric := cn.upsertNumeric(key, tc.seed, 1, false)
			if numeric != tc.wantNumeric || n != tc.wantN {
				t.Errorf("upsertNumeric = (%d, %v), want (%d, %v)", n, numeric, tc.wantN, tc.wantNumeric)
			}
			got, ok := cn.h.GetBytes(key)
			if ok != (tc.wantRecord != nil) || !bytes.Equal(got, tc.wantRecord) {
				t.Errorf("stored record %q (present %v), want %q", got, ok, tc.wantRecord)
			}
		})
	}
}
