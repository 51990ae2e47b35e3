//go:build !linux

package cache

import (
	"errors"
	"os"
)

// mapFileRegion reports that this platform has no mmap support, which
// sends every producer down its read path (heap chunks via Insert and
// Fill.Publish) — the sendfile split, mirrored.
func mapFileRegion(*os.File, int64, int64) (*MmapRef, error) {
	return nil, errors.ErrUnsupported
}

// munmapRegion, zapRegion and zapBatch are unreachable off Linux (no
// ref ever carries a raw region); they exist to keep the platform
// surface identical.
func munmapRegion([]byte) {}

func zapRegion([]byte) {}

func zapBatch([]zapSpan) uint64 { return 0 }
