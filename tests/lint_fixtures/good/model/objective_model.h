#ifndef UDAO_MODEL_OBJECTIVE_MODEL_H_
#define UDAO_MODEL_OBJECTIVE_MODEL_H_

// Clean fixture: model/objective_model.* is where the 1-row calls over the
// batch surface are declared, so the scalar-model-override rule exempts it.
// Zero findings expected.

class ObjectiveModel {
 public:
  virtual double Predict(const Vector& x) const;
  virtual void PredictWithUncertainty(const Vector& x, double* mean,
                                      double* stddev) const;
  virtual Vector InputGradient(const Vector& x) const;
};

#endif  // UDAO_MODEL_OBJECTIVE_MODEL_H_
