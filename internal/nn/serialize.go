package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The gob snapshot format is intentionally simple: each layer is
// reduced to a kind tag, its integer configuration, and flat parameter
// buffers. This keeps saved models independent of internal struct
// layout.

type layerSnapshot struct {
	Kind    string
	Ints    []int
	HasBias bool
	Weight  []float64
	Bias    []float64
}

type netSnapshot struct {
	Version int
	Name    string
	Layers  []layerSnapshot
}

const snapshotVersion = 1

// Save serializes the network to w.
func Save(net *Network, w io.Writer) error {
	snap := netSnapshot{Version: snapshotVersion, Name: net.Name}
	for _, l := range net.Layers {
		var ls layerSnapshot
		switch ll := l.(type) {
		case *Conv2D:
			ls.Kind = "conv2d"
			ls.Ints = []int{ll.Filters, ll.InChannels, ll.KH, ll.KW, ll.Stride}
			ls.Weight = append([]float64(nil), ll.Weight.Value.Data()...)
			if ll.Bias != nil {
				ls.HasBias = true
				ls.Bias = append([]float64(nil), ll.Bias.Value.Data()...)
			}
		case *ReLU:
			ls.Kind = "relu"
		case *MaxPool2D:
			ls.Kind = "maxpool2d"
			ls.Ints = []int{ll.Size}
		case *Flatten:
			ls.Kind = "flatten"
		case *Dense:
			ls.Kind = "dense"
			ls.Ints = []int{ll.In, ll.Out}
			ls.Weight = append([]float64(nil), ll.Weight.Value.Data()...)
			ls.HasBias = true
			ls.Bias = append([]float64(nil), ll.Bias.Value.Data()...)
		default:
			return fmt.Errorf("nn: cannot serialize layer type %T", l)
		}
		snap.Layers = append(snap.Layers, ls)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load deserializes a network written by Save.
func Load(r io.Reader) (*Network, error) {
	var snap netSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", snap.Version)
	}
	net := &Network{Name: snap.Name}
	for i, ls := range snap.Layers {
		switch ls.Kind {
		case "conv2d":
			if len(ls.Ints) != 5 {
				return nil, fmt.Errorf("nn: layer %d: conv2d needs 5 ints, got %d", i, len(ls.Ints))
			}
			f, c, kh, kw, stride := ls.Ints[0], ls.Ints[1], ls.Ints[2], ls.Ints[3], ls.Ints[4]
			conv := &Conv2D{
				Filters: f, InChannels: c, KH: kh, KW: kw, Stride: stride,
				Weight: newParam(f, c, kh, kw),
			}
			if len(ls.Weight) != conv.Weight.Value.Len() {
				return nil, fmt.Errorf("nn: layer %d: conv2d weight length %d, want %d", i, len(ls.Weight), conv.Weight.Value.Len())
			}
			copy(conv.Weight.Value.Data(), ls.Weight)
			if ls.HasBias {
				conv.Bias = newParam(f)
				if len(ls.Bias) != f {
					return nil, fmt.Errorf("nn: layer %d: conv2d bias length %d, want %d", i, len(ls.Bias), f)
				}
				copy(conv.Bias.Value.Data(), ls.Bias)
			}
			net.Layers = append(net.Layers, conv)
		case "relu":
			net.Layers = append(net.Layers, NewReLU())
		case "maxpool2d":
			if len(ls.Ints) != 1 {
				return nil, fmt.Errorf("nn: layer %d: maxpool2d needs 1 int", i)
			}
			net.Layers = append(net.Layers, NewMaxPool2D(ls.Ints[0]))
		case "flatten":
			net.Layers = append(net.Layers, NewFlatten())
		case "dense":
			if len(ls.Ints) != 2 {
				return nil, fmt.Errorf("nn: layer %d: dense needs 2 ints", i)
			}
			in, out := ls.Ints[0], ls.Ints[1]
			d := &Dense{In: in, Out: out, Weight: newParam(out, in), Bias: newParam(out)}
			if len(ls.Weight) != in*out || len(ls.Bias) != out {
				return nil, fmt.Errorf("nn: layer %d: dense parameter lengths %d/%d, want %d/%d",
					i, len(ls.Weight), len(ls.Bias), in*out, out)
			}
			copy(d.Weight.Value.Data(), ls.Weight)
			copy(d.Bias.Value.Data(), ls.Bias)
			net.Layers = append(net.Layers, d)
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown kind %q", i, ls.Kind)
		}
	}
	return net, nil
}

// SaveFile writes the network to path, creating parent directories.
func SaveFile(net *Network, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(net, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a network from path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
