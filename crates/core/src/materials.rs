//! The educational materials themselves (§3.5, "Educational materials").
//!
//! *"The AutoLearn educational materials include documentation supporting
//! different roles and different settings. For directed learning, we
//! provide documentation for educators including course objectives,
//! explanations of what hardware to buy and alternatives, proposed project
//! extensions, and a one-page TA checklist. To support students, our
//! GitBook is documented with extensive comments ... Finally, we provide a
//! special documentation pathway for digital self-learners that contains a
//! combination of teacher's and student's documentation modules."*
//!
//! This module models that documentation set as structured data so the
//! pathways can be generated, validated, and (in the Trovi artifact)
//! published per audience.

use crate::pathway::LearningPathway;
use serde::{Deserialize, Serialize};

/// Who a document is written for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Audience {
    Educator,
    Student,
    SelfLearner,
}

/// One document in the materials set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    pub title: String,
    pub audience: Audience,
    pub sections: Vec<String>,
}

impl Document {
    fn new(title: &str, audience: Audience, sections: &[&str]) -> Document {
        Document {
            title: title.to_string(),
            audience,
            sections: sections.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A checklist item with completion state (the "one-page TA checklist").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChecklistItem {
    pub task: String,
    pub done: bool,
}

/// The one-page TA checklist the paper ships for classroom sessions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaChecklist {
    pub items: Vec<ChecklistItem>,
}

impl TaChecklist {
    pub fn standard() -> TaChecklist {
        let tasks = [
            "verify Chameleon project allocation has service units",
            "advance-reserve GPU nodes for the class slot",
            "charge car batteries / check spares",
            "BYOD-register every car and confirm daemon heartbeat",
            "pre-pull the AutoLearn container image on each car",
            "lay out the tape track, measure line lengths",
            "stage sample datasets in the object store",
            "test the Jupyter SSH tunnel from a student laptop",
            "print the competition scoring sheet",
        ];
        TaChecklist {
            items: tasks
                .iter()
                .map(|t| ChecklistItem {
                    task: t.to_string(),
                    done: false,
                })
                .collect(),
        }
    }

    pub fn complete(&mut self, index: usize) {
        if let Some(item) = self.items.get_mut(index) {
            item.done = true;
        }
    }

    pub fn remaining(&self) -> usize {
        self.items.iter().filter(|i| !i.done).count()
    }

    pub fn ready_for_class(&self) -> bool {
        self.remaining() == 0
    }
}

/// The complete materials set.
pub struct Materials;

impl Materials {
    /// Every document in the package.
    pub fn documents() -> Vec<Document> {
        use Audience::*;
        vec![
            Document::new(
                "Course objectives and outcomes",
                Educator,
                &[
                    "learning outcomes (hardware, UNIX, cloud/edge, simulation, ML)",
                    "prerequisites",
                    "grading and competition rubric",
                ],
            ),
            Document::new(
                "Hardware purchase guide",
                Educator,
                &[
                    "recommended ~$200 car kits (Waveshare PiRacer and alternatives)",
                    "accessories and spares",
                    "track materials (orange tape, dimensions)",
                ],
            ),
            Document::new(
                "Proposed project extensions",
                Educator,
                &[
                    "model comparison competitions",
                    "GPS path following",
                    "obstacle detection",
                    "color stop/go classification",
                    "edge detection line following",
                    "edge vs cloud inference",
                    "reinforcement learning",
                    "digital twin modeling",
                ],
            ),
            Document::new("TA checklist", Educator, &["see TaChecklist::standard()"]),
            Document::new(
                "Car setup and driving guide",
                Student,
                &[
                    "assembling the kit",
                    "BYOD registration",
                    "launching the AutoLearn container",
                    "driving for data collection (joystick / web controller)",
                    "cleaning data with tubclean",
                ],
            ),
            Document::new(
                "Training in the cloud",
                Student,
                &[
                    "reserving a GPU node",
                    "deploying the CUDA image",
                    "rsync-ing your tub",
                    "choosing among the six models",
                    "reading training curves",
                ],
            ),
            Document::new(
                "Evaluation and competition",
                Student,
                &[
                    "deploying your model to the car",
                    "measuring speed and errors",
                    "the scoring formula",
                ],
            ),
            Document::new(
                "Self-learner pathway",
                SelfLearner,
                &[
                    "streamlined teacher+student combination",
                    "simulator-only setup (no hardware)",
                    "sample datasets",
                    "publishing your fork on Trovi",
                ],
            ),
        ]
    }

    /// Documents relevant to one audience.
    pub fn for_audience(audience: Audience) -> Vec<Document> {
        Self::documents()
            .into_iter()
            .filter(|d| d.audience == audience)
            .collect()
    }

    /// Which audience a pathway's primary documentation targets.
    pub fn audience_for_pathway(pathway: LearningPathway) -> Audience {
        match pathway {
            LearningPathway::Regular => Audience::Student,
            LearningPathway::Classroom => Audience::Educator,
            LearningPathway::Digital => Audience::SelfLearner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_audience_has_documents() {
        for a in [Audience::Educator, Audience::Student, Audience::SelfLearner] {
            assert!(
                !Materials::for_audience(a).is_empty(),
                "no documents for {a:?}"
            );
        }
    }

    #[test]
    fn extensions_doc_lists_the_papers_extensions() {
        let docs = Materials::for_audience(Audience::Educator);
        let ext = docs
            .iter()
            .find(|d| d.title.contains("extensions"))
            .expect("extensions doc");
        for topic in [
            "GPS path following",
            "obstacle detection",
            "reinforcement learning",
            "digital twin",
        ] {
            assert!(
                ext.sections.iter().any(|s| s.contains(topic)),
                "missing extension {topic}"
            );
        }
    }

    #[test]
    fn ta_checklist_completes() {
        let mut cl = TaChecklist::standard();
        assert!(!cl.ready_for_class());
        let n = cl.items.len();
        for i in 0..n {
            cl.complete(i);
        }
        assert!(cl.ready_for_class());
        assert_eq!(cl.remaining(), 0);
        // Out-of-range completion is a no-op.
        cl.complete(999);
    }

    #[test]
    fn pathway_audience_mapping() {
        assert_eq!(
            Materials::audience_for_pathway(LearningPathway::Digital),
            Audience::SelfLearner
        );
        assert_eq!(
            Materials::audience_for_pathway(LearningPathway::Classroom),
            Audience::Educator
        );
    }
}
