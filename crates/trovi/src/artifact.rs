//! Artifacts, versions, notebooks.

use autolearn_util::SimTime;
use serde::{Deserialize, Serialize};

/// A notebook cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    pub kind: CellKind,
    pub source: String,
    pub executed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellKind {
    Markdown,
    Code,
}

impl Cell {
    pub fn code(source: &str) -> Cell {
        Cell {
            kind: CellKind::Code,
            source: source.to_string(),
            executed: false,
        }
    }

    pub fn markdown(source: &str) -> Cell {
        Cell {
            kind: CellKind::Markdown,
            source: source.to_string(),
            executed: false,
        }
    }
}

/// A Jupyter notebook: the unit AutoLearn's instructional material ships
/// in ("a series of Jupyter notebooks that can be imported/exported to the
/// GitBook", §3.5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Notebook {
    pub name: String,
    pub cells: Vec<Cell>,
}

impl Notebook {
    pub fn new(name: &str, cells: Vec<Cell>) -> Notebook {
        Notebook {
            name: name.to_string(),
            cells,
        }
    }

    /// Execute a code cell (markdown cells are not executable).
    pub fn execute_cell(&mut self, index: usize) -> bool {
        match self.cells.get_mut(index) {
            Some(cell) if cell.kind == CellKind::Code => {
                cell.executed = true;
                true
            }
            _ => false,
        }
    }

    pub fn executed_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.executed).count()
    }

    pub fn code_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.kind == CellKind::Code)
            .count()
    }
}

/// One published version of an artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Version {
    pub number: u32,
    pub published_at: SimTime,
    pub notebooks: Vec<Notebook>,
    pub changelog: String,
}

/// A Trovi artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Artifact {
    pub slug: String,
    pub title: String,
    pub authors: Vec<String>,
    pub tags: Vec<String>,
    pub description: String,
    pub versions: Vec<Version>,
}

impl Artifact {
    pub fn new(slug: &str, title: &str, authors: &[&str]) -> Artifact {
        Artifact {
            slug: slug.to_string(),
            title: title.to_string(),
            authors: authors.iter().map(|s| s.to_string()).collect(),
            tags: Vec::new(),
            description: String::new(),
            versions: Vec::new(),
        }
    }

    /// The AutoLearn artifact as published (September 2023, 8 versions by
    /// the time of writing — §5).
    pub fn autolearn_example() -> Artifact {
        let mut a = Artifact::new(
            "autolearn-edge-to-cloud",
            "AutoLearn: Learning in the Edge to Cloud Continuum",
            &[
                "Esquivel Morel",
                "Fowler",
                "Keahey",
                "Zheng",
                "Sherman",
                "Anderson",
            ],
        );
        a.tags = vec![
            "education".to_string(),
            "edge".to_string(),
            "machine-learning".to_string(),
            "chi-at-edge".to_string(),
        ];
        a.description = "Educational module teaching cloud, edge and ML with \
                         a small-scale self-driving car on Chameleon"
            .to_string();
        for v in 0..8 {
            a.publish_version(
                SimTime::from_secs(v as f64 * 7.0 * 86_400.0),
                vec![
                    Notebook::new(
                        "01-collect-data.ipynb",
                        vec![
                            Cell::markdown("# Collect driving data"),
                            Cell::code("!donkey createcar --path /car"),
                            Cell::code("!python manage.py drive"),
                        ],
                    ),
                    Notebook::new(
                        "02-train-model.ipynb",
                        vec![
                            Cell::markdown("# Reserve a GPU node and train"),
                            Cell::code("lease = chi.lease.create_lease(...)"),
                            Cell::code("!donkey train --tub /car/data --model linear"),
                        ],
                    ),
                    Notebook::new(
                        "03-evaluate.ipynb",
                        vec![
                            Cell::markdown("# Deploy to the car and evaluate"),
                            Cell::code("container = chi.container.create_container(...)"),
                        ],
                    ),
                ],
                &format!("release {}", v + 1),
            );
        }
        a
    }

    pub fn publish_version(
        &mut self,
        at: SimTime,
        notebooks: Vec<Notebook>,
        changelog: &str,
    ) -> u32 {
        let number = self.versions.len() as u32 + 1;
        self.versions.push(Version {
            number,
            published_at: at,
            notebooks,
            changelog: changelog.to_string(),
        });
        number
    }

    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    pub fn version_count(&self) -> usize {
        self.versions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_increments_versions() {
        let mut a = Artifact::new("x", "X", &["me"]);
        assert_eq!(a.publish_version(SimTime::ZERO, vec![], "v1"), 1);
        assert_eq!(a.publish_version(SimTime::ZERO, vec![], "v2"), 2);
        assert_eq!(a.version_count(), 2);
        assert_eq!(a.latest().unwrap().number, 2);
    }

    #[test]
    fn autolearn_example_matches_paper() {
        let a = Artifact::autolearn_example();
        assert_eq!(a.version_count(), 8);
        assert_eq!(a.latest().unwrap().notebooks.len(), 3);
        assert!(a.tags.contains(&"education".to_string()));
    }

    #[test]
    fn only_code_cells_execute() {
        let mut nb = Notebook::new("t", vec![Cell::markdown("# hi"), Cell::code("print(1)")]);
        assert!(!nb.execute_cell(0)); // markdown
        assert!(nb.execute_cell(1));
        assert!(!nb.execute_cell(5)); // out of range
        assert_eq!(nb.executed_cells(), 1);
        assert_eq!(nb.code_cells(), 1);
    }
}
