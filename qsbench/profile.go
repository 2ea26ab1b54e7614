package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"time"
)

// cpuByModule reads a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and sums sampled CPU time per module, charging each
// sample by classify. Only the fields needed for that are decoded.
func cpuByModule(data []byte) (map[string]time.Duration, error) {
	if len(data) == 0 {
		return nil, errors.New("empty profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		valueSlot = -1
		typeIdx   []int64 // sample_type string indices, in order
	)
	err = eachField(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, typ)
		case 2: // sample
			var s sample
			if err := eachField(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					for _, x := range appendVarints(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range typeIdx {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueSlot = i
		}
	}
	if valueSlot < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]time.Duration{}
	var stack []string
	for _, s := range samples {
		if valueSlot >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out[classify(stack)] += time.Duration(s.values[valueSlot])
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message, handing
// varint values in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
