package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	"sei/internal/mnist"
)

// The POST /v1/predict body is a JSON object with a design name and a
// batch of flattened 28×28 images, 784 pixels each, values in [0,1]:
//
//	{"design": "net2", "images": [[0, 0.25, …], …]}
//
// decodePredict reads it in one pass. It accepts and rejects exactly
// what encoding/json's Decoder.Decode into
//
//	struct {
//		Design string      `json:"design"`
//		Images [][]float64 `json:"images"`
//	}
//
// accepts and rejects, followed by the handler's design, image-count
// and pixel-count checks, and yields bit-identical pixels (each number
// converts as strconv.ParseFloat(tok, 64) does; see parseNumber). That
// includes encoding/json's quirks: keys match case-insensitively under
// Unicode simple folding; a repeated key decodes again into what the
// previous one left, so the last wins and a null pixel keeps what an
// earlier "images" put in its place; unknown keys are skipped once
// their values are checked; null leaves a string or number as it was
// and empties a slice; a value of the wrong type rejects the body, but
// only once the whole value has been scanned, so a syntax or read
// error later in it wins; bytes after the top-level value are never
// parsed. FuzzDecodePredict holds the two to this.
//
// Memory is bounded by the request limits, not by the body limit: the
// decoder keeps at most MaxImagesPerRequest images of 784 pixels and
// only counts the images and pixels past them. Pixels land in a
// pooled scratch store and are copied once into the returned flat
// slice, which is never pooled: Batcher.Predict returns on ctx.Done()
// while the batcher may still read a job's image.

// errMalformed marks a body that is not a predict request (HTTP 400).
// A body over the size limit is an *http.MaxBytesError instead (413).
var errMalformed = errors.New("malformed request body")

// imagePixels is the pixel count of one image.
const imagePixels = mnist.Side * mnist.Side

// maxNesting is encoding/json's nesting limit: a body nested deeper is
// a syntax error there, so it is here. The request's own containers
// nest 3 deep; skip checks every other.
const maxNesting = 10000

// decodeWindow is the read buffer's size; a single token longer than
// it grows the buffer for the rest of that request.
const decodeWindow = 64 << 10

// predictBody is a decoded POST /v1/predict body.
type predictBody struct {
	design string
	// images is the length of the "images" array.
	images int
	// badImage is the first image whose pixel count is not 784 (-1 if
	// none) and badPixels its count; set when 1 ≤ images ≤
	// MaxImagesPerRequest.
	badImage, badPixels int
	// pix holds the images' pixels back to back, 784 each; nil unless
	// 1 ≤ images ≤ MaxImagesPerRequest and badImage is -1.
	pix []float64
}

// imageSlot is one element of the images slice as encoding/json leaves
// it. Image i's pixels live at scratch[i*784:]; a decode into it
// overwrites positions [0, n), and positions [n, hi) keep what an
// earlier, longer decode put there. Positions from hi on read as zero,
// whatever scratch holds there: a slot made again after "images":[]
// reuses its range.
type imageSlot struct {
	// n is the slice's length: its pixel count, including the pixels
	// past 784 that are counted but not kept.
	n, hi int
}

type decoder struct {
	r    io.Reader
	buf  []byte
	pos  int // next unread byte of buf
	end  int // end of the bytes read into buf
	base int // body offset of buf[0], for error messages
	rerr error

	// typeErr is the first value of the wrong type. encoding/json
	// reports it only after the whole value has been scanned.
	typeErr error

	design  string
	images  int
	slots   []imageSlot
	scratch []float64
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decodePredict reads and decodes one predict body from r. Its error
// wraps errMalformed, or is the reader's *http.MaxBytesError.
func decodePredict(r io.Reader) (predictBody, error) {
	d := decoders.Get().(*decoder)
	defer d.release()
	if d.buf == nil {
		d.buf = make([]byte, decodeWindow)
	}
	d.r = r
	out := predictBody{badImage: -1}
	if err := d.value(); err != nil {
		return out, err
	}
	out.design, out.images = d.design, d.images
	if out.images < 1 || out.images > MaxImagesPerRequest {
		return out, nil
	}
	for i, s := range d.slots[:out.images] {
		if s.n != imagePixels {
			out.badImage, out.badPixels = i, s.n
			return out, nil
		}
	}
	out.pix = make([]float64, out.images*imagePixels)
	copy(out.pix, d.scratch)
	return out, nil
}

// release returns d to the pool, dropping a read buffer a long token
// grew.
func (d *decoder) release() {
	if len(d.buf) > decodeWindow {
		d.buf = nil
	}
	*d = decoder{buf: d.buf, slots: d.slots[:0], scratch: d.scratch[:0]}
	decoders.Put(d)
}

// value decodes the top-level value. Anything but an object or null is
// the wrong type; null leaves the request empty, as encoding/json does.
func (d *decoder) value() error {
	c, ok := d.skipSpace()
	if !ok {
		if d.rerr == io.EOF {
			return fmt.Errorf("%w: %w", errMalformed, io.EOF)
		}
		return d.eof()
	}
	var err error
	if c == '{' {
		err = d.members(true, func(field string, c byte) error {
			switch field {
			case "design":
				return d.designValue(c)
			case "images":
				return d.imagesValue(c)
			}
			return d.skip(c, 1, "")
		})
	} else if err = d.skip(c, 0, "predict request"); err == nil && c != '[' {
		err = d.endScalar()
	}
	if err != nil {
		return err
	}
	return d.typeErr
}

// endScalar reads the byte after a top-level scalar, as encoding/json
// does to see where the scalar ends; any byte will do, but a read
// error there is the body's error.
func (d *decoder) endScalar() error {
	if d.pos < d.end || d.more() || d.rerr == io.EOF {
		return nil
	}
	return d.eof()
}

// matchField names the request field a key token selects ("" for
// none), matching the way encoding/json does: exactly, else under
// Unicode simple case folding.
func matchField(tok []byte, plain bool) (string, error) {
	key := tok[1 : len(tok)-1]
	if !plain {
		var s string
		if err := json.Unmarshal(tok, &s); err != nil {
			return "", fmt.Errorf("%w: %w", errMalformed, err)
		}
		key = []byte(s)
	}
	for _, f := range [...]string{"design", "images"} {
		if bytes.EqualFold(key, []byte(f)) {
			return f, nil
		}
	}
	return "", nil
}

// designValue decodes the "design" value; c is its first byte.
func (d *decoder) designValue(c byte) error {
	switch c {
	case '"':
		tok, plain, err := d.str()
		if err != nil {
			return err
		}
		if plain {
			d.design = string(tok[1 : len(tok)-1])
		} else if err := json.Unmarshal(tok, &d.design); err != nil {
			return fmt.Errorf("%w: %w", errMalformed, err)
		}
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.skip(c, 1, "design name")
}

// imagesValue decodes the "images" value; c is its first byte. null
// and [] make a fresh slice, so later images start from zero pixels.
func (d *decoder) imagesValue(c byte) error {
	switch c {
	case 'n':
		d.slots, d.images = d.slots[:0], 0
		return d.literal("null")
	case '[':
		n, err := d.elements(d.image)
		if n == 0 {
			d.slots = d.slots[:0]
		}
		d.images = n
		return err
	}
	return d.skip(c, 1, "images")
}

// image decodes images[i]; c is its first byte. Images past
// MaxImagesPerRequest are checked and counted but not kept: no
// accepted body can contain them.
func (d *decoder) image(i int, c byte) error {
	var s *imageSlot
	if i < MaxImagesPerRequest {
		if i == len(d.slots) {
			d.slots = append(d.slots, imageSlot{})
			if len(d.scratch) < len(d.slots)*imagePixels {
				d.scratch = append(d.scratch, make([]float64, imagePixels)...)
			}
		}
		s = &d.slots[i]
	}
	switch c {
	case 'n':
		if s != nil {
			*s = imageSlot{}
		}
		return d.literal("null")
	case '[':
	default:
		return d.skip(c, 2, "image")
	}
	var px []float64
	if s != nil {
		px = d.scratch[i*imagePixels : (i+1)*imagePixels]
	}
	n, err := d.elements(func(k int, c byte) error {
		// keep leaves the pixel as it is: null does, and so does a value
		// of the wrong type, which rejects the body anyway.
		v, keep := 0.0, true
		switch {
		case c == '-' || '0' <= c && c <= '9':
			tok, x, err := d.number()
			if err != nil {
				return err
			}
			if v, err = parseNumber(tok, x); err != nil {
				d.wrongType("pixel")
			} else {
				keep = false
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if err := d.skip(c, 3, "pixel"); err != nil {
				return err
			}
		}
		if k < len(px) && (!keep || k == s.hi) {
			px[k] = v
			if k == s.hi {
				s.hi++
			}
		}
		return nil
	})
	if s != nil {
		s.n = n
		if n == 0 {
			s.hi = 0
		}
	}
	return err
}

// wrongType records a value of the wrong type for what, or out of its
// range, keeping the first.
func (d *decoder) wrongType(what string) {
	if d.typeErr == nil {
		d.typeErr = fmt.Errorf("%w: invalid %s before byte %d", errMalformed, what, d.base+d.pos)
	}
}

// skip scans and discards one value whose first byte is c, nested in
// depth containers. A non-empty target means the value has the wrong
// type for it, unless it is null.
func (d *decoder) skip(c byte, depth int, target string) error {
	var err error
	switch {
	case c == '{' || c == '[':
		if depth == maxNesting {
			return fmt.Errorf("%w: exceeded max depth at byte %d", errMalformed, d.base+d.pos)
		}
		if c == '{' {
			err = d.members(false, func(_ string, c byte) error { return d.skip(c, depth+1, "") })
		} else {
			_, err = d.elements(func(_ int, c byte) error { return d.skip(c, depth+1, "") })
		}
	case c == '"':
		_, _, err = d.str()
	case c == '-' || '0' <= c && c <= '9':
		_, _, err = d.number()
	case c == 't':
		err = d.literal("true")
	case c == 'f':
		err = d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.syntax(c, "looking for beginning of value")
	}
	if err == nil && target != "" {
		d.wrongType(target)
	}
	return err
}

// members scans the object at buf[pos] and calls member with each
// key's field name (matchField when match is set) and the first byte
// of its value, which member consumes.
func (d *decoder) members(match bool, member func(field string, c byte) error) error {
	d.pos++
	c, done, err := d.first('}')
	for ; !done; c, done, err = d.after('}', "object key:value pair") {
		if err != nil {
			return err
		}
		if c != '"' {
			return d.syntax(c, "looking for beginning of object key string")
		}
		tok, plain, err := d.str()
		if err != nil {
			return err
		}
		field := ""
		if match {
			if field, err = matchField(tok, plain); err != nil {
				return err
			}
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntax(c, "after object key")
		}
		d.pos++
		if c, err = d.peek(); err != nil {
			return err
		}
		if err := member(field, c); err != nil {
			return err
		}
	}
	return err
}

// elements scans the array at buf[pos], calling element with each
// index and first byte, which element consumes, and returns its length.
func (d *decoder) elements(element func(i int, c byte) error) (int, error) {
	d.pos++
	n := 0
	c, done, err := d.first(']')
	for ; !done; c, done, err = d.after(']', "array element") {
		if err != nil {
			return n, err
		}
		if err := element(n, c); err != nil {
			return n, err
		}
		n++
	}
	return n, err
}

// first returns the first byte of a container's first element, or
// consumes the closer of an empty one (done).
func (d *decoder) first(closer byte) (c byte, done bool, err error) {
	if c, err = d.peek(); err != nil || c != closer {
		return c, false, err
	}
	d.pos++
	return c, true, nil
}

// after consumes the separator after a container's element and returns
// the next element's first byte, or consumes the closer (done).
func (d *decoder) after(closer byte, what string) (c byte, done bool, err error) {
	if c, err = d.peek(); err != nil {
		return c, false, err
	}
	switch c {
	case ',':
		d.pos++
		c, err = d.peek()
		return c, false, err
	case closer:
		d.pos++
		return c, true, nil
	}
	return c, false, d.syntax(c, "after "+what)
}

// peek returns the next byte after whitespace without consuming it.
func (d *decoder) peek() (byte, error) {
	c, ok := d.skipSpace()
	if !ok {
		return 0, d.eof()
	}
	return c, nil
}

// skipSpace moves past JSON whitespace and returns the next byte
// without consuming it; false at the end of the input.
func (d *decoder) skipSpace() (byte, bool) {
	for {
		for d.pos < d.end {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return c, true
			}
		}
		if !d.more() {
			return 0, false
		}
	}
}

// more reads more of the body, keeping buf[pos:end] (a token being
// scanned) at the front of buf. It reports false at the end of the
// body or on a read error, which stays in rerr. With a token kept it
// reads until buf is full, and grows a full buf, so a long token that
// arrives in small reads is rescanned O(log) times, not once a read.
func (d *decoder) more() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		d.base += d.pos
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	partial := d.end > 0
	if d.end == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	start := d.end
	for d.end < len(d.buf) {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rerr = err
			break
		}
		if n > 0 && !partial {
			break
		}
	}
	return d.end > start
}

// number walks the number token at buf[pos], consumes it and returns
// its bytes, valid until the next read, and what the walk read of its
// value.
func (d *decoder) number() ([]byte, decimal, error) {
	for {
		n, complete, x := walkNumber(d.buf[d.pos:d.end])
		if n < 0 {
			d.pos += -n - 1
			return nil, x, d.syntax(d.buf[d.pos], "in numeric literal")
		}
		if !complete && d.more() {
			continue
		}
		if !complete && (n == 0 || d.rerr != io.EOF) {
			return nil, x, d.eof()
		}
		tok := d.buf[d.pos : d.pos+n]
		d.pos += n
		return tok, x, nil
	}
}

// decimal is a JSON number as walkNumber reads it: ±m×10^e, where m
// holds the first maxDigits significant digits; inexact reports that
// the number has more.
type decimal struct {
	m       uint64
	e       int
	neg     bool
	inexact bool
}

// maxDigits is the most significant digits m holds: 10^19 < 2^64.
const maxDigits = 19

// walkNumber matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at the start of b and
// reads its value in the same pass. It returns the token's length and
// whether a byte that ends it follows; a length without that is a
// token b may cut short, which is still whole at the end of the input
// (0 when it is not). A bad byte at offset i returns -(i+1).
func walkNumber(b []byte) (n int, complete bool, x decimal) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		x.neg, i = true, 1
	}
	if i == len(b) {
		return 0, false, x
	}
	var m uint64
	digits := 0 // significant digits seen
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if digits < maxDigits {
				m = m*10 + uint64(b[i]-'0')
			}
			digits++
		}
	default:
		return -(i + 1), false, x
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if m == 0 && b[i] == '0' {
				continue // a leading zero
			}
			if digits < maxDigits {
				m = m*10 + uint64(b[i]-'0')
			}
			digits++
		}
		if i == j {
			return noDigit(b, i)
		}
		x.e = j - i // exact while every digit is in m
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		j, exp := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if exp < 1e6 { // far past any exactly converted exponent
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return noDigit(b, i)
		}
		if neg {
			exp = -exp
		}
		x.e += exp
	}
	x.m, x.inexact = m, digits > maxDigits
	return i, i < len(b), x
}

// noDigit is walkNumber's answer when b[i] should have been a digit.
func noDigit(b []byte, i int) (int, bool, decimal) {
	if i == len(b) {
		return 0, false, decimal{}
	}
	return -(i + 1), false, decimal{}
}

// Exact powers: 10^k as a float64 for k ≤ 22, 5^k as a uint64 for
// k ≤ 27.
var (
	pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow5 = func() (p [28]uint64) {
		p[0] = 1
		for k := 1; k < len(p); k++ {
			p[k] = p[k-1] * 5
		}
		return p
	}()
)

// parseNumber is the value of the number token tok that walkNumber
// read as x, bit-identical to strconv.ParseFloat(tok, 64), whose
// error it returns for a number out of float64's range.
func parseNumber(tok []byte, x decimal) (float64, error) {
	if f, ok := x.float(); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(tok), 64)
}

// float converts x exactly when that takes one rounding, as it does
// for the common pixel; false leaves the token to ParseFloat.
func (x decimal) float() (float64, bool) {
	var f float64
	switch {
	case x.m == 0:
	case x.inexact:
		return 0, false
	case x.m < 1<<53 && -22 <= x.e && x.e <= 22:
		// Both operands are exact, so one IEEE operation rounds once.
		f = float64(x.m)
		if x.e < 0 {
			f /= pow10[-x.e]
		} else {
			f *= pow10[x.e]
		}
	case -27 <= x.e && x.e < 0:
		// m/10^k = m/5^k × 2^-k. Divide m, its top bit moved to bit 126,
		// by 5^k, its top bit moved to bit 63: the quotient has 63 or 64
		// bits, and a non-zero remainder sets its low bit (sticky), so
		// converting it rounds as converting the exact quotient would.
		// The result is at least 10^-27, a normal float64, so Ldexp
		// only moves the exponent.
		k := -x.e
		lm, ld := bits.LeadingZeros64(x.m), bits.LeadingZeros64(pow5[k])
		m, d := x.m<<lm, pow5[k]<<ld
		q, r := bits.Div64(m>>1, m<<63, d)
		if r != 0 {
			q |= 1
		}
		f = math.Ldexp(float64(q), ld-lm-63-k)
	default:
		return 0, false
	}
	if x.neg {
		f = -f
	}
	return f, true
}

// str scans the string token at buf[pos], consumes it and returns its
// bytes with the quotes, valid until the next read; plain reports that
// it has no escapes and no non-ASCII bytes, so its bytes are its value.
func (d *decoder) str() (tok []byte, plain bool, err error) {
	for {
		n, plain, bad := scanString(d.buf[d.pos:d.end])
		if bad >= 0 {
			d.pos += bad
			return nil, false, d.syntax(d.buf[d.pos], "in string literal")
		}
		if n > 0 {
			tok := d.buf[d.pos : d.pos+n]
			d.pos += n
			return tok, plain, nil
		}
		if !d.more() {
			return nil, false, d.eof()
		}
	}
}

// scanString matches a JSON string at the start of b (b[0] is '"').
// It returns the token's length, 0 if b cuts it short, or the offset of
// a bad byte as bad (-1 if none).
func scanString(b []byte) (n int, plain bool, bad int) {
	plain = true
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain, -1
		case c == '\\':
			plain = false
			if i+1 == len(b) {
				return 0, false, -1
			}
			i++
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					if i+1 == len(b) {
						return 0, false, -1
					}
					i++
					if !isHex(b[i]) {
						return 0, false, i
					}
				}
			default:
				return 0, false, i
			}
		case c < ' ':
			return 0, false, i
		case c >= 0x80:
			plain = false
		}
	}
	return 0, false, -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// literal consumes the literal lit (true, false or null) at buf[pos].
func (d *decoder) literal(lit string) error {
	for d.end-d.pos < len(lit) && d.more() {
		// read until lit fits or the input ends
	}
	got := d.buf[d.pos:d.end]
	for i := 0; i < len(lit); i++ {
		if i == len(got) {
			return d.eof()
		}
		if got[i] != lit[i] {
			d.pos += i
			return d.syntax(got[i], "in literal "+lit)
		}
	}
	d.pos += len(lit)
	return nil
}

func (d *decoder) syntax(c byte, context string) error {
	return fmt.Errorf("%w: invalid character %q %s at byte %d", errMalformed, c, context, d.base+d.pos)
}

// eof is the error for a body that ends inside the value: the read
// error, or io.ErrUnexpectedEOF.
func (d *decoder) eof() error {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(d.rerr, &tooLarge):
		return d.rerr
	case d.rerr == nil || d.rerr == io.EOF:
		return fmt.Errorf("%w: %w", errMalformed, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("%w: %w", errMalformed, d.rerr)
}
