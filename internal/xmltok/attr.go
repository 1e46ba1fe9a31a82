package xmltok

import "bytes"

// attrList is the attribute grammar (DESIGN.md §8, "The XML dialect"):
// the one reader of a start tag's name="value" pairs, which Next's fast
// accept, the careful path, a seek's queued tags (queueChain) and the
// Splitter all go through, so they accept the same tags and fail at the
// same byte with the same message. b holds the tag of elem from just
// past its name, and base is the input offset of b[0]. b is input on
// the fixed backing (window bytes, or the bytes a seek kept), so an
// entity-free value is borrowed there and copied to the arena on the
// reader backing (Cursor.Keep).
//
// The pairs run to a '>' or "/>": end is the index just past it, empty
// says it was "/>", and with build set attrs is the list, carved from
// attrChunk and its names interned (without, the pairs are only
// checked). When b ends first, end is 0 and err nil — short: the caller
// refills, or falls back to the careful path. When b holds anything
// else, err says what and where — bad. Either way nothing is kept.
func (rs *rawScanner) attrList(elem string, b []byte, base int64, build bool) (end int, empty bool, attrs []Attr, err error) {
	first := len(rs.attrChunk)
	for p := 0; ; {
		for p < len(b) && isWSByte(b[p]) {
			p++
		}
		if p == len(b) {
			break
		}
		if c := b[p]; c == '>' {
			return p + 1, false, rs.attrsFrom(first), nil
		} else if c == '/' {
			if p+1 == len(b) {
				break
			}
			if b[p+1] == '>' {
				return p + 2, true, rs.attrsFrom(first), nil
			}
			err = rs.errAt(base+int64(p+2), "malformed self-closing tag <%s", elem)
			break
		}
		n := scanName(b[p:])
		if n == 0 {
			err = rs.errAt(base+int64(p), "malformed attribute in <%s>", elem)
			break
		}
		name := b[p : p+n]
		for p += n; p < len(b) && isWSByte(b[p]); p++ {
		}
		if p == len(b) {
			break
		}
		if b[p] != '=' {
			err = rs.errAt(base+int64(p+1), "attribute %s in <%s> missing '='", name, elem)
			break
		}
		for p++; p < len(b) && isWSByte(b[p]); p++ {
		}
		if p == len(b) {
			break
		}
		if b[p] != '"' && b[p] != '\'' {
			err = rs.errAt(base+int64(p+1), "attribute %s in <%s> missing quote", name, elem)
			break
		}
		q := bytes.IndexByte(b[p+1:], b[p])
		if q < 0 {
			break
		}
		val := b[p+1 : p+1+q]
		input := bytes.IndexByte(val, '&') < 0
		if !input {
			if val, err = rs.decode(val, base+int64(p+1)); err != nil {
				break
			}
		}
		p += q + 2
		if build {
			first = rs.appendAttr(first, Attr{Name: rs.names.Intern(name), Value: rs.cur.Keep(val, input)})
		}
	}
	rs.attrChunk = rs.attrChunk[:first]
	return 0, false, nil, err
}

// decode resolves the entity references of the attribute value raw, at
// input offset base, into textBuf. A reference ends inside its value,
// so one that reaches the closing quote is unterminated there.
func (rs *rawScanner) decode(raw []byte, base int64) ([]byte, error) {
	rs.textBuf = rs.textBuf[:0]
	for j := bytes.IndexByte(raw, '&'); j >= 0; j = bytes.IndexByte(raw, '&') {
		r, n, err := rs.ref(raw[j+1:], base+int64(j+1))
		if err != nil {
			return nil, err
		}
		rs.textBuf = append(append(rs.textBuf, raw[:j]...), r...)
		raw, base = raw[j+1+n:], base+int64(j+1+n)
	}
	rs.textBuf = append(rs.textBuf, raw...)
	return rs.textBuf, nil
}

// maxEntityName is the longest reference name between '&' and ';'.
const maxEntityName = 12

// ref is the entity rule, for attribute values, character data and the
// Splitter's whitespace test alike: b holds what follows a '&', at input
// offset base, and the reference is the name up to the first ';',
// resolved by resolveName. It returns the replacement and the length of
// the name and its ';'. A name of more than maxEntityName bytes is too
// long where its next byte is read, one that b ends before is
// unterminated where b ends, and one that does not resolve is reported
// just past its ';'.
func (rs *rawScanner) ref(b []byte, base int64) (string, int, error) {
	n := bytes.IndexByte(b[:min(len(b), maxEntityName+1)], ';')
	if n < 0 {
		if len(b) > maxEntityName {
			return "", 0, rs.errAt(base+maxEntityName+1, "entity reference too long")
		}
		return "", 0, rs.errAt(base+int64(len(b)), "unterminated entity reference")
	}
	r, ok := resolveName(b[:n])
	if !ok {
		at := base + int64(n+1)
		if n > 0 && b[0] == '#' {
			return "", 0, rs.errAt(at, "malformed character reference &%s;", b[:n])
		}
		return "", 0, rs.errAt(at, "unknown entity &%s;", b[:n])
	}
	return r, n + 1, nil
}

// resolveName resolves a reference name — one of the five XML built-ins
// or a numeric character reference. The switch comparison and the manual
// digit parse do not allocate, so resolving a built-in entity costs no
// heap traffic at all.
func resolveName(s []byte) (string, bool) {
	switch string(s) { // compiled to comparisons; no allocation
	case "lt":
		return "<", true
	case "gt":
		return ">", true
	case "amp":
		return "&", true
	case "apos":
		return "'", true
	case "quot":
		return `"`, true
	}
	if len(s) > 1 && s[0] == '#' {
		digits := s[1:]
		base := uint64(10)
		if digits[0] == 'x' || digits[0] == 'X' {
			base, digits = 16, digits[1:]
		}
		if len(digits) == 0 {
			return "", false
		}
		// Manual parse, matching strconv.ParseUint(digits, base, 32):
		// no sign, no underscores, no 0x prefix, range-checked at 32
		// bits. The name length cap (12 bytes) rules out uint64
		// overflow before the range check fires.
		var n uint64
		for _, c := range digits {
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				return "", false
			}
			if d >= base {
				return "", false
			}
			n = n*base + d
		}
		if n > 1<<32-1 {
			return "", false
		}
		return string(rune(n)), true
	}
	return "", false
}

// appendAttr appends a to the attribute list attrChunk[first:] and
// returns the list's start, which moves when a full chunk makes the
// list migrate to a fresh one.
func (rs *rawScanner) appendAttr(first int, a Attr) int {
	if len(rs.attrChunk) == cap(rs.attrChunk) {
		held := rs.attrChunk[first:]
		rs.attrSize = max(attrChunkSize, min(2*rs.attrSize, maxAttrChunk), 2*len(held))
		rs.attrChunk = append(make([]Attr, 0, rs.attrSize), held...)
		first = 0
	}
	rs.attrChunk = append(rs.attrChunk, a)
	return first
}

// attrChunkSize is the capacity of the smallest attribute chunk (2 KiB).
// Each fresh chunk doubles the one before it, up to maxAttrChunk (32
// KiB), so a document's attribute lists cost a few allocations, not one
// per 64 attributes.
const (
	attrChunkSize = 64
	maxAttrChunk  = 1024
)

// attrsFrom returns the attribute list attrChunk[first:], clipped so an
// append by the holder cannot reach the next tag's entries; nil when the
// tag has no attributes.
func (rs *rawScanner) attrsFrom(first int) []Attr {
	n := len(rs.attrChunk)
	if n == first {
		return nil
	}
	return rs.attrChunk[first:n:n]
}
