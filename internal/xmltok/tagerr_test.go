package xmltok

import (
	"errors"
	"strings"
	"testing"
)

// tagErrors is a table of malformed start tags: the attribute list
// follows the name of d in <a><b><d …, with the rest of the document
// after it unless eof is set, and msg and off are the SyntaxError full
// tokenization reports (msg "" when the document is accepted).
var tagErrors = []struct {
	attrs string
	eof   bool
	msg   string
	off   int64
}{
	{attrs: `x=1`, msg: `attribute x in <d> missing quote`, off: 12},
	{attrs: `x "1"`, msg: `attribute x in <d> missing '='`, off: 12},
	{attrs: `="1"`, msg: `malformed attribute in <d>`, off: 9},
	{attrs: `x="1`, eof: true, msg: `unexpected end of input in tag`, off: 13},
	{attrs: `x="&bogus;"`, msg: `unknown entity &bogus;`, off: 19},
	{attrs: `x="&#zz;"`, msg: `malformed character reference &#zz;`, off: 17},
	{attrs: `x="&abcdefghijklm;"`, msg: `entity reference too long`, off: 26},
	{attrs: `x="&amp"`, msg: `unterminated entity reference`, off: 16},
	{attrs: `x="&amp/`, eof: true, msg: `unexpected end of input in tag`, off: 17},
	{attrs: `x="&a"b;"`, msg: `unexpected end of input in tag`, off: 35},
	// Names and values that straddle the edge of a 16-byte window.
	{attrs: strings.Repeat("k", 22) + `=1`, msg: `attribute ` + strings.Repeat("k", 22) + ` in <d> missing quote`, off: 33},
	{attrs: `k="` + strings.Repeat("v", 20) + `&bogus;"`, msg: `unknown entity &bogus;`, off: 39},
	{attrs: `k="` + strings.Repeat("v", 20) + `&amp"`, msg: `unterminated entity reference`, off: 36},
	{attrs: `k="` + strings.Repeat("v", 20) + `&amp;" ` + strings.Repeat("j", 14) + `='&#x41;'`},
	// The other shapes the grammar turns down.
	{attrs: `x="1"y`, msg: `attribute y in <d> missing '='`, off: 16},
	{attrs: `x="1"/ `, msg: `malformed self-closing tag <d`, off: 16},
	{attrs: `x`, msg: `attribute x in <d> missing '='`, off: 11},
	{attrs: `x=`, msg: `attribute x in <d> missing quote`, off: 12},
	{attrs: `x='&lt;&gt'`, msg: `unterminated entity reference`, off: 19},
	{attrs: `x="1" "`, msg: `unexpected end of input in tag`, off: 33},
	{attrs: `x="&lt;" y='&#x110000;' z="a>b"`},
	// Input that ends inside the start tag.
	{attrs: `x="1"`, eof: true, msg: `unexpected end of input in tag`, off: 14},
	{attrs: ``, eof: true, msg: `unexpected end of input in tag`, off: 9},
	{attrs: `x="1"/`, eof: true, msg: `unexpected end of input in tag`, off: 15},
	{attrs: `x="a>b`, eof: true, msg: `unexpected end of input in tag`, off: 15},
	{attrs: `x=1"`, eof: true, msg: `unexpected end of input in tag`, off: 13},
}

// TestTagErrors pins the error of every malformed start tag of
// tagErrors, as a plain tag, as a seek's chain tag and as the sought
// tag: full tokenization and a seek from b must both report the
// table's message at the table's offset, on the bytes backing and on
// every reader window from 16 to 63 bytes.
func TestTagErrors(t *testing.T) {
	failure := func(tz *Tokenizer, sought string) (string, int64) {
		defer tz.Release()
		if sought != "" {
			tz.SetSkipper(&seekOnce{at: 1, sought: []string{sought}})
		}
		for {
			_, err := tz.Next()
			var se *SyntaxError
			if errors.As(err, &se) {
				return se.Msg, se.Offset
			}
			if err != nil {
				return "", -1 // io.EOF: accepted
			}
		}
	}
	for _, row := range tagErrors {
		want := row.off
		if row.msg == "" {
			want = -1
		}
		for _, placed := range []struct{ as, doc, sought string }{
			{"a chain tag", `<a><b><d ` + row.attrs + `><c/></d></b></a>`, "c"},
			{"the sought tag", `<a><b><d ` + row.attrs + `><e/></d></b></a>`, "d"},
		} {
			doc := placed.doc
			if row.eof {
				doc = `<a><b><d ` + row.attrs
			}
			for _, sought := range []string{"", placed.sought} {
				mode := "full tokenization"
				if sought != "" {
					mode = "a seek for " + sought + ", with d as " + placed.as
				}
				if msg, off := failure(NewTokenizerBytes([]byte(doc)), sought); msg != row.msg || off != want {
					t.Errorf("%q, %s, bytes: %q at %d, want %q at %d", doc, mode, msg, off, row.msg, want)
					continue
				}
				for size := 16; size < 64; size++ {
					if msg, off := failure(NewTokenizerWindow(strings.NewReader(doc), size), sought); msg != row.msg || off != want {
						t.Errorf("%q, %s, %d-byte window: %q at %d, want %q at %d", doc, mode, size, msg, off, row.msg, want)
						break
					}
				}
			}
		}
	}
}
