//! PVT corner modelling for multi-corner (MCMM) double-side CTS.
//!
//! The paper evaluates under a single nominal delay model, but sign-off
//! is multi-corner: front-side BEOL, back-side metal, nano-TSVs and
//! buffer cells all derate *differently* across process/voltage/
//! temperature corners, so a tree sized at nominal can be badly skewed
//! at SS. This module captures one corner as a set of validated
//! multiplicative derates over a base [`Technology`]:
//!
//! * [`WireDerate`] — per-side wire resistance/capacitance factors;
//! * [`DerateFactors`] — the full factor set of one corner (front wire,
//!   back wire, buffer delay, nTSV RC);
//! * [`Corner`] — a named, validated factor set, expanded into a derated
//!   [`Technology`] by [`Technology::derated`] (which also scales the
//!   buffer's NLDM tables, see [`crate::NldmTable::scaled`]);
//! * [`CornerSet`] — K corners expanded over one base technology, with
//!   a designated nominal corner; [`CornerSet::asap7_pvt`] builds the
//!   ASAP7-flavoured SS/TT/FF preset the MCMM engine and benches use.
//!
//! Derating by `1.0` everywhere is *bit-identical* to the base
//! technology (uniform `f64` scaling by one preserves every value), so a
//! single-nominal-corner MCMM evaluation reproduces the nominal engine
//! exactly — the invariant `dscts-core`'s `mcmm_proptests` enforce.

use crate::{TechError, Technology};
use std::fmt;

/// Multiplicative derates a corner applies to one wire stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireDerate {
    /// Unit-resistance factor.
    pub res: f64,
    /// Unit-capacitance factor.
    pub cap: f64,
}

impl WireDerate {
    /// The identity derate (factors of `1.0`).
    pub const NOMINAL: WireDerate = WireDerate { res: 1.0, cap: 1.0 };
}

/// The full multiplicative derate set of one PVT corner.
///
/// Front- and back-side wires derate independently (conventional BEOL
/// and backside metal are different process steps with different
/// variation), buffers derate through one delay factor applied to both
/// the linearised and the NLDM delay views, and nTSVs derate their
/// series resistance and lumped capacitance. Sink pin capacitances are
/// design data copied into the routed topology and are not corner-scaled
/// here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerateFactors {
    /// Front-side (BEOL) wire derates.
    pub front_wire: WireDerate,
    /// Back-side metal wire derates.
    pub back_wire: WireDerate,
    /// Buffer delay/slew factor (scales `d_intr`, `R_drv` and both NLDM
    /// tables, see [`crate::BufferModel::derated`]).
    pub buffer_delay: f64,
    /// nTSV series-resistance / lumped-capacitance derates.
    pub ntsv: WireDerate,
}

impl DerateFactors {
    /// The identity factor set (every factor `1.0`).
    pub fn nominal() -> DerateFactors {
        DerateFactors {
            front_wire: WireDerate::NOMINAL,
            back_wire: WireDerate::NOMINAL,
            buffer_delay: 1.0,
            ntsv: WireDerate::NOMINAL,
        }
    }

    /// Checks every factor is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::BadDerate`] naming the first offending
    /// factor (non-positive, NaN or infinite).
    pub fn validate(&self) -> Result<(), TechError> {
        let checks = [
            (self.front_wire.res, "front_wire.res"),
            (self.front_wire.cap, "front_wire.cap"),
            (self.back_wire.res, "back_wire.res"),
            (self.back_wire.cap, "back_wire.cap"),
            (self.buffer_delay, "buffer_delay"),
            (self.ntsv.res, "ntsv.res"),
            (self.ntsv.cap, "ntsv.cap"),
        ];
        for (v, what) in checks {
            if !(v > 0.0 && v.is_finite()) {
                return Err(TechError::BadDerate(what));
            }
        }
        Ok(())
    }
}

impl Default for DerateFactors {
    fn default() -> Self {
        DerateFactors::nominal()
    }
}

/// A named, validated PVT corner: a [`DerateFactors`] set plus the name
/// it reports under (`"SS"`, `"TT"`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    name: String,
    derate: DerateFactors,
}

impl Corner {
    /// A corner from a name and a factor set.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::BadDerate`] when any factor is non-positive
    /// or not finite.
    pub fn new(name: impl Into<String>, derate: DerateFactors) -> Result<Corner, TechError> {
        derate.validate()?;
        Ok(Corner {
            name: name.into(),
            derate,
        })
    }

    /// The identity corner: every derate `1.0`, bit-identical timing to
    /// the base technology.
    pub fn nominal(name: impl Into<String>) -> Corner {
        Corner {
            name: name.into(),
            derate: DerateFactors::nominal(),
        }
    }

    /// ASAP7-flavoured slow corner (SSG-like, low V, high T): buffers
    /// slow down much more than wires, front-side BEOL derates more than
    /// the thick backside metal, and nTSV resistance degrades with them.
    pub fn asap7_ss() -> Corner {
        Corner {
            name: "SS".to_owned(),
            derate: DerateFactors {
                front_wire: WireDerate {
                    res: 1.14,
                    cap: 1.06,
                },
                back_wire: WireDerate {
                    res: 1.05,
                    cap: 1.03,
                },
                buffer_delay: 1.28,
                ntsv: WireDerate {
                    res: 1.22,
                    cap: 1.08,
                },
            },
        }
    }

    /// ASAP7-flavoured typical corner (the identity).
    pub fn asap7_tt() -> Corner {
        Corner::nominal("TT")
    }

    /// ASAP7-flavoured fast corner (FFG-like, high V, low T).
    pub fn asap7_ff() -> Corner {
        Corner {
            name: "FF".to_owned(),
            derate: DerateFactors {
                front_wire: WireDerate {
                    res: 0.92,
                    cap: 0.96,
                },
                back_wire: WireDerate {
                    res: 0.97,
                    cap: 0.98,
                },
                buffer_delay: 0.82,
                ntsv: WireDerate {
                    res: 0.85,
                    cap: 0.95,
                },
            },
        }
    }

    /// The corner's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The corner's factor set.
    pub fn derate(&self) -> &DerateFactors {
        &self.derate
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// K corners expanded over one base [`Technology`], with a designated
/// nominal corner.
///
/// Expansion happens once, up front: each corner's factor set is applied
/// to the base technology ([`Technology::derated`], including derated
/// NLDM tables), and the resulting per-corner technologies are owned by
/// the set — the MCMM evaluation engine borrows them for its resident
/// per-corner states.
///
/// ```
/// use dscts_tech::{CornerSet, Technology};
///
/// let set = CornerSet::asap7_pvt(&Technology::asap7());
/// assert_eq!(set.len(), 3);
/// assert_eq!(set.corner(set.nominal_index()).name(), "TT");
/// // SS wires are more resistive than TT wires:
/// let ss = set.tech(0).rc(dscts_tech::Side::Front);
/// let tt = set.nominal_tech().rc(dscts_tech::Side::Front);
/// assert!(ss.res_per_nm > tt.res_per_nm);
/// ```
#[derive(Debug, Clone)]
pub struct CornerSet {
    corners: Vec<Corner>,
    techs: Vec<Technology>,
    nominal: usize,
}

impl CornerSet {
    /// Expands `base` under each of `corners`, designating
    /// `corners[nominal]` as the nominal corner (the one single-corner
    /// flows and report baselines read).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::NoCorners`] for an empty corner list,
    /// [`TechError::BadNominalCorner`] when `nominal` is out of range,
    /// or [`TechError::BadDerate`] when any corner's factors fail
    /// validation.
    pub fn expand(
        base: &Technology,
        corners: Vec<Corner>,
        nominal: usize,
    ) -> Result<CornerSet, TechError> {
        if corners.is_empty() {
            return Err(TechError::NoCorners);
        }
        if nominal >= corners.len() {
            return Err(TechError::BadNominalCorner);
        }
        let techs = corners
            .iter()
            .map(|c| base.derated(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CornerSet {
            corners,
            techs,
            nominal,
        })
    }

    /// The ASAP7-flavoured three-corner preset: SS / TT / FF, with TT
    /// (index 1) nominal.
    pub fn asap7_pvt(base: &Technology) -> CornerSet {
        CornerSet::expand(
            base,
            vec![Corner::asap7_ss(), Corner::asap7_tt(), Corner::asap7_ff()],
            1,
        )
        .expect("preset corners are valid")
    }

    /// A single-corner set holding only the identity corner — timing is
    /// bit-identical to `base`. Single-technology optimization runs the
    /// resident evaluator over this set.
    pub fn nominal_only(base: &Technology) -> CornerSet {
        CornerSet::expand(base, vec![Corner::nominal("TT")], 0).expect("identity corner is valid")
    }

    /// Number of corners.
    pub fn len(&self) -> usize {
        self.corners.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.corners.is_empty()
    }

    /// The `k`-th corner.
    pub fn corner(&self, k: usize) -> &Corner {
        &self.corners[k]
    }

    /// All corners, in index order.
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }

    /// The `k`-th corner's expanded technology.
    pub fn tech(&self, k: usize) -> &Technology {
        &self.techs[k]
    }

    /// All expanded technologies, in corner order.
    pub fn techs(&self) -> &[Technology] {
        &self.techs
    }

    /// Index of the nominal corner.
    pub fn nominal_index(&self) -> usize {
        self.nominal
    }

    /// The nominal corner's expanded technology.
    pub fn nominal_tech(&self) -> &Technology {
        &self.techs[self.nominal]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;

    #[test]
    fn validate_rejects_each_bad_factor() {
        for (bad, what) in [
            (f64::NAN, "buffer_delay"),
            (0.0, "buffer_delay"),
            (-1.0, "buffer_delay"),
            (f64::INFINITY, "buffer_delay"),
        ] {
            let d = DerateFactors {
                buffer_delay: bad,
                ..DerateFactors::nominal()
            };
            assert_eq!(d.validate(), Err(TechError::BadDerate(what)));
        }
        let d = DerateFactors {
            front_wire: WireDerate {
                res: f64::NAN,
                cap: 1.0,
            },
            ..DerateFactors::nominal()
        };
        assert_eq!(d.validate(), Err(TechError::BadDerate("front_wire.res")));
        let d = DerateFactors {
            ntsv: WireDerate { res: 1.0, cap: 0.0 },
            ..DerateFactors::nominal()
        };
        assert_eq!(d.validate(), Err(TechError::BadDerate("ntsv.cap")));
        assert!(DerateFactors::nominal().validate().is_ok());
    }

    #[test]
    fn corner_new_validates() {
        let err = Corner::new(
            "bad",
            DerateFactors {
                back_wire: WireDerate {
                    res: -2.0,
                    cap: 1.0,
                },
                ..DerateFactors::nominal()
            },
        )
        .unwrap_err();
        assert_eq!(err, TechError::BadDerate("back_wire.res"));
        assert!(err.to_string().contains("back_wire.res"));
    }

    #[test]
    fn derated_technology_scales_per_side() {
        let base = Technology::asap7();
        let ss = base.derated(&Corner::asap7_ss()).unwrap();
        let d = Corner::asap7_ss();
        let f = d.derate();
        let (bf, bb) = (base.rc(Side::Front), base.rc(Side::Back));
        let (sf, sb) = (ss.rc(Side::Front), ss.rc(Side::Back));
        assert!((sf.res_per_nm - bf.res_per_nm * f.front_wire.res).abs() < 1e-15);
        assert!((sf.cap_per_nm - bf.cap_per_nm * f.front_wire.cap).abs() < 1e-15);
        assert!((sb.res_per_nm - bb.res_per_nm * f.back_wire.res).abs() < 1e-15);
        assert!((sb.cap_per_nm - bb.cap_per_nm * f.back_wire.cap).abs() < 1e-15);
        assert!((ss.ntsv().res_kohm() - base.ntsv().res_kohm() * f.ntsv.res).abs() < 1e-15);
        assert!(
            (ss.buffer().delay_ps(10.0) - base.buffer().delay_ps(10.0) * f.buffer_delay).abs()
                < 1e-12
        );
        // Corner-invariant knobs.
        assert_eq!(ss.max_load_ff(), base.max_load_ff());
        assert_eq!(ss.sink_cap_ff(), base.sink_cap_ff());
        assert_eq!(ss.name(), "asap7-backside@SS");
    }

    #[test]
    fn nominal_corner_is_bit_identical_except_name() {
        let base = Technology::asap7();
        let tt = base.derated(&Corner::asap7_tt()).unwrap();
        assert_eq!(tt.buffer(), base.buffer());
        assert_eq!(tt.ntsv(), base.ntsv());
        assert_eq!(tt.layers(), base.layers());
        assert_eq!(tt.name(), "asap7-backside@TT");
    }

    #[test]
    fn corner_set_expands_and_designates_nominal() {
        let base = Technology::asap7();
        let set = CornerSet::asap7_pvt(&base);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.nominal_index(), 1);
        assert_eq!(set.corner(0).name(), "SS");
        assert_eq!(set.corner(1).to_string(), "TT");
        assert_eq!(set.corner(2).name(), "FF");
        assert_eq!(set.techs().len(), 3);
        assert_eq!(set.nominal_tech().buffer(), base.buffer());
        // SS slower than TT slower than FF on the buffer.
        let d = |k: usize| set.tech(k).buffer().delay_ps(30.0);
        assert!(d(0) > d(1) && d(1) > d(2));
    }

    #[test]
    fn corner_set_rejects_bad_inputs() {
        let base = Technology::asap7();
        assert_eq!(
            CornerSet::expand(&base, vec![], 0).unwrap_err(),
            TechError::NoCorners
        );
        assert_eq!(
            CornerSet::expand(&base, vec![Corner::nominal("TT")], 1).unwrap_err(),
            TechError::BadNominalCorner
        );
    }

    #[test]
    fn nominal_only_set_is_single_identity() {
        let base = Technology::asap7();
        let set = CornerSet::nominal_only(&base);
        assert_eq!(set.len(), 1);
        assert_eq!(set.nominal_index(), 0);
        assert_eq!(set.tech(0).buffer(), base.buffer());
    }
}
