package experiments

import (
	"boosthd/internal/boosthd"
	"boosthd/internal/ensemble"
	"boosthd/internal/forest"
	"boosthd/internal/gbdt"
	"boosthd/internal/nn"
	"boosthd/internal/onlinehd"
	"boosthd/internal/svm"
)

// Predictor classifies a batch of feature rows.
type Predictor func(X [][]float64) ([]int, error)

// Spec is one model in the Table I/II/III zoo.
type Spec struct {
	Name  string
	Train func(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error)
}

// zoo returns the paper's seven models in Table I column order.
func zoo() []Spec {
	return []Spec{
		{Name: "Adaboost", Train: trainAdaBoost},
		{Name: "RF", Train: trainForest},
		{Name: "XGBoost", Train: trainGBDT},
		{Name: "SVM", Train: trainSVM},
		{Name: "DNN", Train: trainDNN},
		{Name: "OnlineHD", Train: trainOnlineHD},
		{Name: "BoostHD", Train: trainBoostHD},
	}
}

func trainAdaBoost(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error) {
	cfg := ensemble.DefaultAdaBoostConfig()
	cfg.Seed = seed
	m, err := ensemble.FitAdaBoost(X, y, classes, cfg)
	if err != nil {
		return nil, err
	}
	return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil
}

func trainForest(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error) {
	cfg := forest.DefaultConfig()
	cfg.NumTrees = q.NumTrees
	cfg.MaxDepth = q.TreeDepth
	cfg.Seed = seed
	m, err := forest.Fit(X, y, classes, cfg)
	if err != nil {
		return nil, err
	}
	return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil
}

func trainGBDT(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error) {
	cfg := gbdt.DefaultConfig()
	cfg.MaxDepth = 5
	m, err := gbdt.Fit(X, y, classes, cfg)
	if err != nil {
		return nil, err
	}
	return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil
}

func trainSVM(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error) {
	cfg := svm.DefaultConfig()
	cfg.Epochs = q.SVMEpochs
	cfg.Seed = seed
	m, err := svm.Fit(X, y, classes, cfg)
	if err != nil {
		return nil, err
	}
	return func(X [][]float64) ([]int, error) { return m.PredictBatch(X), nil }, nil
}

func trainDNN(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error) {
	cfg := nn.DefaultConfig(classes)
	cfg.Hidden = q.DNNHidden
	cfg.Epochs = q.DNNEpochs
	cfg.Seed = seed
	m, err := nn.New(len(X[0]), cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Fit(X, y); err != nil {
		return nil, err
	}
	return m.PredictBatch, nil
}

func trainOnlineHD(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error) {
	cfg := onlinehd.DefaultConfig(q.HDDim, classes)
	cfg.Epochs = q.HDEpochs
	cfg.Seed = seed
	m, err := onlinehd.Train(X, y, nil, cfg)
	if err != nil {
		return nil, err
	}
	return m.PredictBatch, nil
}

func trainBoostHD(X [][]float64, y []int, classes int, seed int64, q quality) (Predictor, error) {
	cfg := boosthd.DefaultConfig(q.HDDim, q.NL, classes)
	cfg.Epochs = q.HDEpochs
	cfg.Seed = seed
	m, err := boosthd.Train(X, y, cfg)
	if err != nil {
		return nil, err
	}
	return m.PredictBatch, nil
}
