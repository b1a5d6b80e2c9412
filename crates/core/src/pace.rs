//! Pace configurations (Sec. 2.2).
//!
//! "A pace k means that the subplan starts one execution whenever the system
//! has received 1/k of the total estimated tuples for that trigger
//! condition. The higher the pace is, the more eagerly we execute the
//! subplan. … The pace configuration P_1 = (1, 1, …, 1) represents the batch
//! execution for all subplans."

use ishare_common::{Error, Result, SubplanId};
use ishare_plan::SharedPlan;
use std::fmt;

/// One pace per subplan, positionally aligned with
/// [`SharedPlan::subplans`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PaceConfiguration {
    paces: Vec<u32>,
}

impl PaceConfiguration {
    /// Batch execution: every subplan at pace 1 (the paper's P_𝟙).
    pub fn batch(n: usize) -> Self {
        PaceConfiguration { paces: vec![1; n] }
    }

    /// Build from explicit paces (each must be ≥ 1).
    pub fn new(paces: Vec<u32>) -> Result<Self> {
        if let Some(&p) = paces.iter().find(|&&p| p == 0) {
            return Err(Error::InvalidConfig(format!("pace {p} must be >= 1")));
        }
        Ok(PaceConfiguration { paces })
    }

    /// Number of subplans covered.
    pub fn len(&self) -> usize {
        self.paces.len()
    }

    /// `true` iff covering zero subplans.
    pub fn is_empty(&self) -> bool {
        self.paces.is_empty()
    }

    /// Pace of one subplan.
    pub fn pace(&self, id: SubplanId) -> u32 {
        self.paces[id.index()]
    }

    /// Raw slice (what the estimator consumes).
    pub fn as_slice(&self) -> &[u32] {
        &self.paces
    }

    /// Copy with one subplan's pace replaced (the paper's P_[pᵢ\pᵢ+1]).
    pub fn with_pace(&self, id: SubplanId, pace: u32) -> Self {
        let mut paces = self.paces.clone();
        paces[id.index()] = pace;
        PaceConfiguration { paces }
    }

    /// Set a pace in place.
    pub fn set(&mut self, id: SubplanId, pace: u32) {
        self.paces[id.index()] = pace;
    }

    /// Check the engine requirement that a parent subplan's pace never
    /// exceeds its children's (a parent cannot consume faster than the
    /// child materializes).
    pub fn respects_plan(&self, plan: &SharedPlan) -> Result<()> {
        if self.paces.len() != plan.len() {
            return Err(Error::InvalidConfig(format!(
                "{} paces for {} subplans",
                self.paces.len(),
                plan.len()
            )));
        }
        for sp in &plan.subplans {
            for c in sp.children() {
                if self.pace(sp.id) > self.pace(c) {
                    return Err(Error::InvalidConfig(format!(
                        "parent {} pace {} exceeds child {} pace {}",
                        sp.id,
                        self.pace(sp.id),
                        c,
                        self.pace(c)
                    )));
                }
            }
        }
        Ok(())
    }

    /// `true` iff every pace has reached `max_pace`.
    pub fn maxed(&self, max_pace: u32) -> bool {
        self.paces.iter().all(|&p| p >= max_pace)
    }
}

impl fmt::Display for PaceConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.paces.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let p = PaceConfiguration::batch(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.pace(SubplanId(2)), 1);
        assert!(PaceConfiguration::new(vec![1, 0]).is_err());
        let p2 = p.with_pace(SubplanId(1), 5);
        assert_eq!(p2.pace(SubplanId(1)), 5);
        assert_eq!(p.pace(SubplanId(1)), 1, "with_pace is non-destructive");
        assert_eq!(p2.to_string(), "(1, 5, 1)");
    }

    #[test]
    fn maxed() {
        let p = PaceConfiguration::new(vec![5, 5]).unwrap();
        assert!(p.maxed(5));
        assert!(!p.maxed(6));
        assert!(PaceConfiguration::batch(0).maxed(100), "vacuously maxed");
    }
}
