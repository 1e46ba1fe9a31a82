// Input/output format selection (DESIGN.md §8): the engine itself is
// format-neutral — it consumes an event.Source and writes an
// event.Sink — and this file is the single place where a Format value
// resolves to concrete front ends (internal/xmltok, internal/jsontok).
package core

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"gcx/internal/event"
	"gcx/internal/jsontok"
	"gcx/internal/xmltok"
)

// Format selects the input syntax (and with it the output syntax: XML
// input serializes results as XML, JSON/NDJSON input as JSON lines).
type Format uint8

const (
	// FormatAuto sniffs the format from the first non-whitespace input
	// byte: '<' means XML, anything else JSON. Auto never resolves to
	// NDJSON — line-framing (and with it NDJSON sharding) is an
	// explicit promise the caller must make.
	FormatAuto Format = iota
	// FormatXML is the paper's XML front end.
	FormatXML
	// FormatJSON is a stream of whitespace-separated JSON values
	// (a single document, or concatenated/pretty-printed values).
	FormatJSON
	// FormatNDJSON is newline-delimited JSON: exactly one record per
	// line, which is what record-aligned stream sharding cuts at.
	FormatNDJSON
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatXML:
		return "xml"
	case FormatJSON:
		return "json"
	case FormatNDJSON:
		return "ndjson"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// ParseFormat resolves a CLI/URL name.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FormatAuto, nil
	case "xml":
		return FormatXML, nil
	case "json":
		return FormatJSON, nil
	case "ndjson", "jsonl", "json-lines":
		return FormatNDJSON, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want auto, xml, json or ndjson)", s)
	}
}

// DetectPathFormat guesses a format from a file name's extension,
// returning FormatAuto when the extension is not telling.
func DetectPathFormat(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".xml":
		return FormatXML
	case ".json":
		return FormatJSON
	case ".ndjson", ".jsonl":
		return FormatNDJSON
	default:
		return FormatAuto
	}
}

// Input is the document a run reads: a syntax plus exactly one of an
// in-memory slice and a stream. A non-nil Reader means streamed input;
// otherwise Data is the whole document, scanned in place on the
// zero-copy path (DESIGN.md §12) — windows and text tokens alias it, so
// the caller must not mutate it until the run is over.
type Input struct {
	Format Format
	Data   []byte
	Reader io.Reader
}

// resolved materializes FormatAuto by sniffing the input's first
// non-whitespace byte: '<' means XML, anything else JSON. A stream is
// re-wrapped so the sniffed bytes are not consumed. Explicit formats
// pass through untouched. Empty or whitespace-only input resolves to
// XML, the historical default; either front end reports its own syntax
// error on it.
func (in Input) resolved() Input {
	if in.Format != FormatAuto {
		return in
	}
	in.Format = FormatXML
	if in.Reader == nil {
		for _, c := range in.Data {
			if f, ok := sniff(c); ok {
				in.Format = f
				break
			}
		}
		return in
	}
	br, ok := in.Reader.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(in.Reader, 4096)
	}
	in.Reader = br
	for n := 1; ; n++ {
		b, err := br.Peek(n)
		if err != nil {
			return in
		}
		if f, ok := sniff(b[n-1]); ok {
			in.Format = f
			return in
		}
	}
}

// sniff classifies one leading input byte; ok is false for whitespace,
// which decides nothing.
func sniff(c byte) (f Format, ok bool) {
	switch c {
	case ' ', '\t', '\r', '\n':
		return FormatAuto, false
	case '<':
		return FormatXML, true
	default:
		return FormatJSON, true
	}
}

// newSource returns the event source for an input whose format is
// resolved.
func newSource(in Input) (event.Source, error) {
	switch in.Format {
	case FormatXML:
		if in.Reader != nil {
			return xmltok.NewTokenizer(in.Reader), nil
		}
		return xmltok.NewTokenizerBytes(in.Data), nil
	case FormatJSON, FormatNDJSON:
		if in.Reader != nil {
			return jsontok.NewTokenizer(in.Reader), nil
		}
		return jsontok.NewTokenizerBytes(in.Data), nil
	default:
		return nil, fmt.Errorf("core: format %v has no event source (resolve auto first)", in.Format)
	}
}

// NewSourceBytes returns the zero-copy event source over an in-memory
// document in a resolved format, for callers that drive a front end
// without a run (layer probes, tests).
func NewSourceBytes(f Format, data []byte) (event.Source, error) {
	return newSource(Input{Format: f, Data: data})
}

// NewSink returns the event sink matching a resolved input format: XML
// results for XML input, JSON-lines results for JSON/NDJSON input.
func NewSink(f Format, w io.Writer) (event.Sink, error) {
	switch f {
	case FormatXML:
		return xmltok.NewSerializer(w), nil
	case FormatJSON, FormatNDJSON:
		return jsontok.NewSerializer(w), nil
	default:
		return nil, fmt.Errorf("core: format %v has no event sink (resolve auto first)", f)
	}
}
