package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cobra/internal/cipher"
	"cobra/internal/datapath"
	"cobra/internal/fastpath"
	"cobra/internal/model"
	"cobra/internal/program"
)

// Image is one configuration compiled once: the algorithm/key pair built
// into microcode at the configured unroll, its trace-compiled fastpath
// executor (proven by the translation validator when Config.Validate is
// set), the modeled timing, and a decryption half compiled the same way
// on first use. In the paper's terms it is the microcode the external
// system produces once per configuration and reloads into the iRAM on
// every algorithm switch; loading it is cheap, compiling it is not.
//
// An Image is immutable once built and safe to share: any number of
// devices, on any goroutines, may load it (NewDevice, Device.Load), and
// each runs its own clone of the compiled traces. It holds the key for as
// long as it lives, which is as long as its holder keeps it.
type Image struct {
	alg      Algorithm
	key      []byte
	ref      cipher.Block
	timing   model.Timing
	interp   bool
	validate bool

	enc *half

	decOnce sync.Once
	dec     *half
	decErr  error
}

// half is one direction of an image: its program and compiled trace.
type half struct {
	prog *program.Program
	// fast is the compiled executor every installing device clones; the
	// image never runs it. Nil when compilation was refused (fastErr says
	// why) or forced off (Config.Interpreter).
	fast    *fastpath.Exec
	fastErr error
	// counted is set by the first device that installs the half, which
	// counts the compile in its registry: summed over devices, the
	// compile series counts compiles, not loads.
	counted atomic.Bool
}

// Compile builds the algorithm/key pair into microcode at cfg.Unroll and
// trace-compiles it, unless cfg.Interpreter forces the interpreter;
// cfg.Validate gates the compiled trace on the translation validator.
// cfg.Metrics and cfg.Trace are device options and are ignored here.
func Compile(alg Algorithm, key []byte, cfg Config) (*Image, error) {
	total, err := alg.TotalRounds()
	if err != nil {
		return nil, err
	}
	unroll := cfg.Unroll
	if unroll == 0 {
		unroll = total
	}
	var p *program.Program
	var ref cipher.Block
	switch alg {
	case RC6:
		if p, err = program.BuildRC6(key, unroll, total); err == nil {
			ref, err = cipher.NewRC6(key)
		}
	case Rijndael:
		if p, err = program.BuildRijndael(key, unroll); err == nil {
			ref, err = cipher.NewRijndael(key)
		}
	case Serpent:
		if p, err = program.BuildSerpent(key, unroll); err == nil {
			ref, err = cipher.NewSerpentCOBRA(key)
		}
	}
	if err != nil {
		return nil, err
	}
	// The timing model reads the configured array, so it needs the
	// program loaded once; this also proves the microcode loads before
	// any device takes it.
	m, err := program.NewMachine(p)
	if err != nil {
		return nil, err
	}
	if err := program.Load(m, p); err != nil {
		return nil, err
	}
	img := &Image{
		alg:      alg,
		key:      append([]byte(nil), key...),
		ref:      ref,
		timing:   model.Analyze(m.Array, model.DefaultDelays()),
		interp:   cfg.Interpreter,
		validate: cfg.Validate,
	}
	img.enc = img.compile(p)
	return img, nil
}

// compile trace-compiles one direction's program.
func (img *Image) compile(p *program.Program) *half {
	if img.interp {
		return &half{prog: p}
	}
	ex, err := p.Compile()
	return img.proven(p, ex, err)
}

// proven applies the opt-in translation-validation gate: an unproven
// trace is never installed. Devices still work — every call on that
// direction routes through the interpreter — and the half's fastErr
// carries the validator's verdict (divergence witness included).
func (img *Image) proven(p *program.Program, ex *fastpath.Exec, err error) *half {
	if ex != nil && img.validate {
		if res := p.ValidateExec(ex); !res.Proven {
			return &half{prog: p, fastErr: res.Err()}
		}
	}
	return &half{prog: p, fast: ex, fastErr: err}
}

// decrypt returns the decryption half, building and compiling it on the
// first call. The paper maps only encryption; the decryption microcode
// (internal/program's decrypt builders) shows the architecture carries
// the inverse ciphers with the same structures — RC6 via SUB +
// negated-amount rotates, Rijndael via the FIPS-197 equivalent inverse
// cipher, Serpent via the inverse LT rows.
func (img *Image) decrypt() (*half, error) {
	img.decOnce.Do(func() {
		var p *program.Program
		var err error
		switch img.alg {
		case RC6:
			p, err = program.BuildRC6Decrypt(img.key, img.enc.prog.HWRounds, img.enc.prog.TotalRounds)
		case Rijndael:
			p, err = program.BuildRijndaelDecrypt(img.key, img.enc.prog.HWRounds)
		case Serpent:
			// The decryption mapping is evaluated at the paper's base
			// granularity (one round per pass).
			p, err = program.BuildSerpentDecrypt(img.key)
		default:
			err = fmt.Errorf("core: no decryption mapping for %q", img.alg)
		}
		if err != nil {
			img.decErr = err
			return
		}
		img.dec = img.compile(p)
	})
	return img.dec, img.decErr
}

// NewDevice builds a device holding the image. cfg.Metrics and cfg.Trace
// set up the device's registry as in Configure; the other fields are
// compile options, fixed by the image, and are ignored.
func (img *Image) NewDevice(cfg Config) (*Device, error) {
	met := newDeviceMetrics()
	if cfg.Trace > 0 {
		met.reg.EnableTrace(cfg.Trace)
	}
	d := &Device{met: met}
	if err := d.Load(img); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Attach(met.reg)
	}
	return d, nil
}

// Algorithm returns the compiled algorithm.
func (img *Image) Algorithm() Algorithm { return img.alg }

// Unroll returns the compiled unroll depth.
func (img *Image) Unroll() int { return img.enc.prog.HWRounds }

// Geometry returns the array geometry the encryption program targets.
func (img *Image) Geometry() datapath.Geometry { return img.enc.prog.Geometry }

// DatapathMHz returns the modeled datapath clock of the configured array.
func (img *Image) DatapathMHz() float64 { return img.timing.DatapathMHz }

// UsesFastpath reports whether encryption runs on the trace-compiled
// executor on every device loading the image.
func (img *Image) UsesFastpath() bool { return img.enc.fast != nil }
