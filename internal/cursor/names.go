package cursor

// Names interns the element, attribute and key names a front end reads,
// so that repeated names in a large document share one string. The zero
// value is ready to use.
//
// Ownership rule: every string Names hands out — from the map or from
// the cache in front of it — is an owned copy made by Intern, never a
// view of the bytes passed in. That is what lets a pooled tokenizer
// carry its Names from one input to the next while the inputs
// themselves (borrowed slices, refilled windows) come and go.
type Names struct {
	// cache is direct-mapped on a name's length and its first, middle
	// and last byte: a document uses a few dozen names over and over, so
	// nearly every lookup is one string compare here instead of a hash
	// of the whole name (95 % of an XMark document's tags, with its 66
	// names in 256 slots). An entry is always a string the map also
	// holds.
	cache [1 << nameCacheBits]string
	all   map[string]string
}

const nameCacheBits = 8

// maxInternedNames bounds the map carried across pooled reuses; beyond
// it Reset starts over.
const maxInternedNames = 4096

// Intern returns the canonical string for the name b. Neither a cache
// hit nor a map hit allocates (the compiler elides the conversions in
// the comparison and the lookup); a miss stores an owned copy.
func (n *Names) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := uint32(b[0]) | uint32(b[len(b)/2])<<8 | uint32(b[len(b)-1])<<16 | uint32(len(b))<<24
	slot := &n.cache[h*0x9E3779B1>>(32-nameCacheBits)] // Fibonacci hashing: the top bits mix all four
	if *slot == string(b) {
		return *slot
	}
	s, ok := n.all[string(b)]
	if !ok {
		if n.all == nil {
			n.all = make(map[string]string, 64)
		}
		s = string(b)
		n.all[s] = s
	}
	*slot = s
	return s
}

// Reset prepares Names for the next input: the names stay (the next
// document most likely uses them again) unless a hostile input has
// grown the map past maxInternedNames.
func (n *Names) Reset() {
	if len(n.all) > maxInternedNames {
		*n = Names{}
	}
}
