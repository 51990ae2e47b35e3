package main

import (
	"encoding/binary"
	"hash/crc32"
)

// Every body the benchmark serves is a pure function of (seed, object
// id, offset), so the validator can check any window of any response
// without keeping the bytes around.

const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// contentKey derives the per-object stream key.
func contentKey(seed, id uint64) uint64 { return mix64(seed*golden ^ mix64(id+1)) }

// fillContent writes bytes [off, off+len(dst)) of the object with the
// given key: the 8-byte word at index w is mix64(key + w*golden).
func fillContent(dst []byte, key uint64, off int64) {
	var tmp [8]byte
	w := uint64(off) / 8
	if r := int(off % 8); r != 0 {
		binary.LittleEndian.PutUint64(tmp[:], mix64(key+w*golden))
		dst = dst[copy(dst, tmp[r:]):]
		w++
	}
	for len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, mix64(key+w*golden))
		dst = dst[8:]
		w++
	}
	if len(dst) > 0 {
		binary.LittleEndian.PutUint64(tmp[:], mix64(key+w*golden))
		copy(dst, tmp[:])
	}
}

// edgeBytes is how much of each end of a body every response is
// checked against; one response in fullCheckEvery gets a whole-body
// checksum as well.
const (
	edgeBytes      = 64
	fullCheckEvery = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// object is one servable entity and what a correct response to it
// looks like.
type object struct {
	urlPath string
	size    int64
	key     uint64
	head    []byte // first min(edgeBytes, size) body bytes
	tail    []byte // last min(edgeBytes, size) body bytes
	crc     uint32 // Castagnoli CRC of the whole body
	etag    string // learned from the server on the touch pass
}

// newObject describes an object whose full body the caller has just
// generated with fillContent(body, key, 0).
func newObject(urlPath string, key uint64, body []byte) *object {
	n := len(body)
	e := min(edgeBytes, n)
	return &object{
		urlPath: urlPath,
		size:    int64(n),
		key:     key,
		head:    append([]byte(nil), body[:e]...),
		tail:    append([]byte(nil), body[n-e:]...),
		crc:     crc32.Checksum(body, castagnoli),
	}
}
