package sizeparse

import "testing"

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"1024", 1024},
		{"512B", 512},
		{"1KB", 1 << 10},
		{"10MB", 10 << 20},
		{"2GB", 2 << 30},
		{" 5 mb ", 5 << 20},
		{"10mb", 10 << 20},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "MB", "-5MB", "0", "x10MB", "99999999999GB"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}
