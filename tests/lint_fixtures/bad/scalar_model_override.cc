// Seeded scalar-model-override violations (lines 9 and 13): a per-point
// override declared in a model class and one defined out of class. The
// batch names and the calls on the other lines must not match.

class DemoModel : public ObjectiveModel {
 public:
  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* g, Vector* v) const override;
  double Predict(const Vector& x) const override;
};

void DemoModel::PredictWithUncertaintyBatch(const Matrix& x, Vector* m);
Vector DemoModel::InputGradient(const Vector& x) const { return {}; }

double Evaluate(const ObjectiveModel& model, const Vector& x) {
  const double v = model.Predict(x);
  Vector g = model.InputGradient(x);
  return v + g[0];
}
