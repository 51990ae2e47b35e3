//go:build !linux

package cache

import (
	"errors"
	"os"
)

// mapFile reports that this platform has no mmap support, which sends
// every producer down its read path (heap chunks via Insert and
// Fill.Publish) — the sendfile split, mirrored.
func mapFile(*os.File, int64) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

// munmapRegion, residentRegion, zapRegion and zapBatch are unreachable
// off Linux (no FileRef ever holds a mapping); they exist to keep the
// platform surface identical.
func munmapRegion([]byte) {}

func residentRegion([]byte) bool { return false }

func zapRegion([]byte) {}

func zapBatch([]zapSpan) uint64 { return 0 }
