// Package sizeparse parses human-friendly byte sizes ("512KB", "10MB")
// for the command-line tools.
package sizeparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse understands raw byte counts and B/KB/MB/GB suffixes
// (case-insensitive, binary multiples).
func Parse(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("malformed size %q", orig)
	}
	if f > float64((int64(1)<<62)/mult) {
		return 0, fmt.Errorf("size %q overflows", orig)
	}
	return int64(f * float64(mult)), nil
}
