// Retail segmentation: soft-cluster customer orders with a full-covariance
// GMM trained directly over the normalized Orders ⋈ Items schema — the
// paper's motivating scenario ("an analyst modeling customer shopping
// trends"). Demonstrates that F-GMM never materializes the join and reports
// per-segment profiles.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"factorml"
)

// Three ground-truth shopper archetypes drive the synthetic orders:
// bargain hunters (cheap items, many units), premium shoppers (expensive
// items, few units) and bulk buyers (mid-price, heavy items).
type archetype struct {
	name     string
	priceMu  float64
	amountMu float64
	weightMu float64
}

var archetypes = []archetype{
	{"bargain", 12, 8, 1.0},
	{"premium", 140, 1.5, 0.6},
	{"bulk", 55, 20, 8.0},
}

func main() {
	dir, err := os.MkdirTemp("", "factorml-retail-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := factorml.Open(dir, factorml.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(7))
	const nItems, nOrders = 300, 30000

	// Items carry the archetype signal in price and weight; each item
	// belongs to the catalog segment of one archetype.
	items, err := db.CreateDimensionTable("items", []string{"price", "weight"})
	if err != nil {
		log.Fatal(err)
	}
	itemArch := make([]int, nItems)
	for i := 0; i < nItems; i++ {
		a := rng.Intn(len(archetypes))
		itemArch[i] = a
		err := items.Append(int64(i), []float64{
			archetypes[a].priceMu * (0.8 + 0.4*rng.Float64()),
			archetypes[a].weightMu * (0.8 + 0.4*rng.Float64()),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount"}, false, items)
	if err != nil {
		log.Fatal(err)
	}
	truth := make([]int, nOrders)
	for i := 0; i < nOrders; i++ {
		item := rng.Intn(nItems)
		a := itemArch[item]
		truth[i] = a
		amount := archetypes[a].amountMu * math.Abs(1+0.3*rng.NormFloat64())
		if err := orders.Append(int64(i), []int64{int64(item)}, []float64{amount}, 0); err != nil {
			log.Fatal(err)
		}
	}

	ds, err := db.Dataset(orders)
	if err != nil {
		log.Fatal(err)
	}

	res, err := factorml.TrainGMM(ds, factorml.Factorized, factorml.GMMConfig{
		K: len(archetypes), MaxIter: 40, Tol: 1e-8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("F-GMM trained in %v over %d orders (no join materialized: %d pages written)\n",
		res.Stats.TrainTime, ds.NumRows(), res.Stats.IO.PageWrites)
	fmt.Printf("converged=%v after %d EM iterations, log-likelihood %.1f\n",
		res.Stats.Converged, res.Stats.Iters, res.Stats.FinalLL())

	// Profile each learned segment: mean feature vector [amount, price,
	// weight] and its share of the order stream.
	fmt.Println("\nlearned segments (features: amount | price | weight):")
	for k := 0; k < res.Model.K; k++ {
		m := res.Model.Means[k]
		fmt.Printf("  segment %d: weight %.2f, amount %6.1f, price %6.1f, item-weight %5.2f\n",
			k, res.Model.Weights[k], m[0], m[1], m[2])
	}

	// Purity: how well the soft clusters recover the generating archetypes.
	assign := make(map[[2]int]int)
	i := 0
	score, err := res.Model.RowScorer()
	if err != nil {
		log.Fatal(err)
	}
	err = ds.Stream(func(sid int64, x []float64, _ float64) error {
		_, k := score(x)
		assign[[2]int{k, truth[i]}]++
		i++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for k := 0; k < res.Model.K; k++ {
		best := 0
		for a := range archetypes {
			if c := assign[[2]int{k, a}]; c > best {
				best = c
			}
		}
		correct += best
	}
	fmt.Printf("\ncluster purity vs ground-truth archetypes: %.1f%%\n",
		100*float64(correct)/float64(nOrders))
}
