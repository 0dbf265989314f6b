// Command colarm-datagen emits the synthetic benchmark datasets (the
// stand-ins for UCI chess, mushroom and PUMSB — see DESIGN.md §13) or the
// paper's Table 1 salary example as CSV.
//
// Usage:
//
//	colarm-datagen -dataset mushroom -seed 7 > mushroom.csv
//	colarm-datagen -dataset chess -scale 0.25 -o chess-small.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"colarm/internal/datagen"
	"colarm/internal/relation"
)

func main() {
	var (
		dataset = flag.String("dataset", "salary", "dataset: salary, chess, mushroom, pumsb")
		seed    = flag.Int64("seed", 1, "generator seed")
		scale   = flag.Float64("scale", 1.0, "record-count scale factor")
		out     = flag.String("o", "", "output path (default stdout)")
	)
	flag.Parse()
	if err := run(*dataset, *seed, *scale, *out); err != nil {
		fmt.Fprintln(os.Stderr, "colarm-datagen:", err)
		os.Exit(1)
	}
}

func run(dataset string, seed int64, scale float64, out string) error {
	var (
		d   *relation.Dataset
		err error
	)
	start := time.Now()
	switch dataset {
	case "salary":
		d = datagen.Salary()
	case "chess":
		d, err = datagen.Generate(datagen.Scaled(datagen.ChessConfig(seed), scale))
	case "mushroom":
		d, err = datagen.Generate(datagen.Scaled(datagen.MushroomConfig(seed), scale))
	case "pumsb":
		d, err = datagen.Generate(datagen.Scaled(datagen.PUMSBConfig(seed), scale))
	default:
		return fmt.Errorf("unknown dataset %q (want salary, chess, mushroom or pumsb)", dataset)
	}
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	genTime := time.Since(start)
	start = time.Now()
	if err := d.WriteCSV(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d records, %d attributes (generated in %s, written in %s)\n",
		dataset, d.NumRecords(), d.NumAttrs(),
		genTime.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	return nil
}
