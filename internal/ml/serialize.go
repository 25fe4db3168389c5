package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Serialization uses flattened, exported DTOs so fitted tree ensembles
// can be stored with encoding/gob and reloaded without retraining (TPM
// training is the slowest step of every experiment CLI).

// treeDTO is a flattened CART tree: node i's children are Left[i] and
// Right[i] (-1 for leaves). Importance carries the fit-time SSE
// reductions per feature so a reloaded ensemble reports the same
// Breiman importances as the freshly trained one.
type treeDTO struct {
	Feature    []int32
	Threshold  []float64
	Left       []int32
	Right      []int32
	Value      []float64
	Importance []float64
	D          int
}

func flattenTree(t *DecisionTreeRegressor) treeDTO {
	dto := treeDTO{D: t.d, Importance: append([]float64(nil), t.importance...)}
	var walk func(n *treeNode) int32
	walk = func(n *treeNode) int32 {
		idx := int32(len(dto.Feature))
		dto.Feature = append(dto.Feature, int32(n.feature))
		dto.Threshold = append(dto.Threshold, n.threshold)
		dto.Left = append(dto.Left, -1)
		dto.Right = append(dto.Right, -1)
		dto.Value = append(dto.Value, n.value)
		if n.feature >= 0 {
			dto.Left[idx] = walk(n.left)
			dto.Right[idx] = walk(n.right)
		}
		return idx
	}
	if t.root != nil {
		walk(t.root)
	}
	return dto
}

func (dto treeDTO) restore() (*DecisionTreeRegressor, error) {
	n := len(dto.Feature)
	if n == 0 {
		return nil, fmt.Errorf("ml: empty tree")
	}
	if dto.D <= 0 {
		return nil, fmt.Errorf("ml: tree dimension %d", dto.D)
	}
	if len(dto.Threshold) != n || len(dto.Left) != n || len(dto.Right) != n || len(dto.Value) != n {
		return nil, fmt.Errorf("ml: ragged tree arrays")
	}
	nodes := make([]treeNode, n)
	for i := 0; i < n; i++ {
		if !finite(dto.Value[i]) {
			return nil, fmt.Errorf("ml: node %d has non-finite value", i)
		}
		nodes[i] = treeNode{
			feature:   int(dto.Feature[i]),
			threshold: dto.Threshold[i],
			value:     dto.Value[i],
		}
		if dto.Feature[i] >= 0 {
			if int(dto.Feature[i]) >= dto.D {
				return nil, fmt.Errorf("ml: node %d splits on feature %d, dimension %d", i, dto.Feature[i], dto.D)
			}
			if !finite(dto.Threshold[i]) {
				return nil, fmt.Errorf("ml: node %d has non-finite threshold", i)
			}
			l, r := dto.Left[i], dto.Right[i]
			// flattenTree emits preorder, so a valid file always has
			// children strictly after their parent; requiring l,r > i
			// also makes cycles (which would hang Predict) impossible.
			if int(l) <= i || int(r) <= i || int(l) >= n || int(r) >= n {
				return nil, fmt.Errorf("ml: node %d child index out of range (%d, %d)", i, l, r)
			}
			nodes[i].left = &nodes[l]
			nodes[i].right = &nodes[r]
		}
	}
	t := &DecisionTreeRegressor{d: dto.D, root: &nodes[0], fitted: true}
	t.defaults()
	if len(dto.Importance) == dto.D {
		t.importance = append([]float64(nil), dto.Importance...)
	} else {
		// Pre-importance files: decode cleanly with zero importances.
		t.importance = make([]float64, dto.D)
	}
	return t, nil
}

// finite rejects NaN and ±Inf — a fitted tree can never contain them,
// so their presence in a file means corruption.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// forestDTO is the storable form of a fitted random forest.
type forestDTO struct {
	Trees []treeDTO
	D     int
}

// MarshalBinary implements encoding.BinaryMarshaler, so a fitted forest
// embeds cleanly in any gob stream, feature importances included.
func (f *RandomForestRegressor) MarshalBinary() ([]byte, error) {
	if !f.fitted {
		return nil, fmt.Errorf("ml: MarshalBinary before Fit")
	}
	dto := forestDTO{D: f.d}
	for _, t := range f.trees {
		dto.Trees = append(dto.Trees, flattenTree(t))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *RandomForestRegressor) UnmarshalBinary(data []byte) error {
	var dto forestDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return fmt.Errorf("ml: decode forest: %w", err)
	}
	if len(dto.Trees) == 0 {
		return fmt.Errorf("ml: forest with no trees")
	}
	if dto.D <= 0 {
		return fmt.Errorf("ml: forest dimension %d", dto.D)
	}
	f.Trees = len(dto.Trees)
	f.d = dto.D
	f.trees = f.trees[:0]
	for i, td := range dto.Trees {
		if td.D != dto.D {
			return fmt.Errorf("ml: tree %d dimension %d != forest %d", i, td.D, dto.D)
		}
		t, err := td.restore()
		if err != nil {
			return fmt.Errorf("ml: tree %d: %w", i, err)
		}
		f.trees = append(f.trees, t)
	}
	f.fitted = true
	return nil
}
