"""Golden reports: run_suite at seed 7 for every construction and every
negative control that applies to it.

The values were captured before the region, glue and check-selection
refactor and must never be re-fitted: a change here is a change of
behaviour.  Check names, statuses and sample counts compare exactly; the
floats compare with math.isclose, so another numpy build does not flake.
"""

import math

import pytest

from pcretract.constructions import CONSTRUCTION_IDS, build_construction
from pcretract.core import NormKind
from pcretract.verification import CORRUPTIONS, run_suite

SEED = 7

# (check, status, samples, max_violation, tolerance) per report, keyed by
# construction id, plus "+<control>" for a negative control.  Radial
# constructions are built in dimension 3 with the Euclidean norm.
GOLDEN = {
    'fractional': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'pass', 10000, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 1896, 1.0, 1.000000001),
        ('piece-continuity-2', 'pass', 1910, 1.000000000009824, 1.000000001),
        ('piece-continuity-3', 'pass', 1904, 1.0000000000022402, 1.000000001),
        ('piece-continuity-4', 'pass', 1904, 1.0000000000024665, 1.000000001),
        ('piece-continuity-5', 'pass', 1903, 1.000000000045724, 1.000000001),
        ('piece-continuity-6', 'pass', 1901, 1.0000000000010523, 1.000000001),
        ('piece-continuity-7', 'pass', 1917, 1.0000000000008513, 1.000000001),
        ('piece-continuity-8', 'pass', 1925, 1.000000000004888, 1.000000001),
        ('piece-continuity-9', 'pass', 1910, 1.0000000000019365, 1.000000001),
        ('piece-continuity-10', 'pass', 1904, 1.0000000000026543, 1.000000001),
    ],
    'fractional+halved': [
        ('retraction-identity', 'fail', 10000, 0.49996575380723957, 1e-12),
        ('cover-and-monotonicity', 'pass', 10000, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 1896, 0.5, 1.000000001),
        ('piece-continuity-2', 'pass', 1910, 0.500000000004912, 1.000000001),
        ('piece-continuity-3', 'pass', 1904, 0.5000000000011201, 1.000000001),
        ('piece-continuity-4', 'pass', 1904, 0.5000000000012332, 1.000000001),
        ('piece-continuity-5', 'pass', 1903, 0.500000000022862, 1.000000001),
        ('piece-continuity-6', 'pass', 1901, 0.5000000000005261, 1.000000001),
        ('piece-continuity-7', 'pass', 1917, 0.5000000000004257, 1.000000001),
        ('piece-continuity-8', 'pass', 1925, 0.500000000002444, 1.000000001),
        ('piece-continuity-9', 'pass', 1910, 0.5000000000009682, 1.000000001),
        ('piece-continuity-10', 'pass', 1904, 0.5000000000013272, 1.000000001),
    ],
    'fractional+shrinking-witness': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'fail', 10000, 5550.0, 0.0),
        ('piece-continuity-1', 'pass', 1898, 1.0000000000008606, 1.000000001),
        ('piece-continuity-2', 'pass', 1911, 1.0000000000009883, 1.000000001),
        ('piece-continuity-3', 'pass', 1904, 1.0000000000045282, 1.000000001),
        ('piece-continuity-4', 'pass', 1904, 1.0000000000024665, 1.000000001),
        ('piece-continuity-5', 'pass', 1903, 1.000000000045724, 1.000000001),
        ('piece-continuity-6', 'pass', 1900, 1.000000000015322, 1.000000001),
        ('piece-continuity-7', 'pass', 1917, 1.0, 1.000000001),
        ('piece-continuity-8', 'inconclusive', 0, 0.0, 1.000000001),
        ('piece-continuity-9', 'inconclusive', 0, 0.0, 1.000000001),
        ('piece-continuity-10', 'inconclusive', 0, 0.0, 1.000000001),
    ],
    'fractional+understated-lipschitz': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'pass', 10000, 0.0, 0.0),
        ('piece-continuity-1', 'fail', 1896, 1.0, 0.010000000010000001),
        ('piece-continuity-2', 'fail', 1910, 1.000000000009824, 0.010000000010000001),
        ('piece-continuity-3', 'fail', 1904, 1.0000000000022402, 0.010000000010000001),
        ('piece-continuity-4', 'fail', 1904, 1.0000000000024665, 0.010000000010000001),
        ('piece-continuity-5', 'fail', 1903, 1.000000000045724, 0.010000000010000001),
        ('piece-continuity-6', 'fail', 1901, 1.0000000000010523, 0.010000000010000001),
        ('piece-continuity-7', 'fail', 1917, 1.0000000000008513, 0.010000000010000001),
        ('piece-continuity-8', 'fail', 1925, 1.000000000004888, 0.010000000010000001),
        ('piece-continuity-9', 'fail', 1910, 1.0000000000019365, 0.010000000010000001),
        ('piece-continuity-10', 'fail', 1904, 1.0000000000026543, 0.010000000010000001),
    ],
    'glue': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'pass', 10000, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 1897, 1.0, 1.000000001),
        ('piece-continuity-2', 'pass', 1907, 1.0, 1.000000001),
        ('piece-continuity-3', 'pass', 1909, 1.0, 1.000000001),
        ('piece-continuity-4', 'pass', 1898, 1.0, 1.000000001),
        ('piece-continuity-5', 'pass', 1903, 1.0, 1.000000001),
        ('piece-continuity-6', 'pass', 1905, 1.0, 1.000000001),
        ('piece-continuity-7', 'pass', 1918, 1.0, 1.000000001),
        ('piece-continuity-8', 'pass', 1919, 1.0, 1.000000001),
        ('piece-continuity-9', 'pass', 1909, 1.0, 1.000000001),
        ('piece-continuity-10', 'pass', 1903, 1.0, 1.000000001),
    ],
    'glue+halved': [
        ('retraction-identity', 'fail', 10000, 0.49996575380723957, 1e-12),
        ('cover-and-monotonicity', 'pass', 10000, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 1897, 0.5, 1.000000001),
        ('piece-continuity-2', 'pass', 1907, 0.5, 1.000000001),
        ('piece-continuity-3', 'pass', 1909, 0.5, 1.000000001),
        ('piece-continuity-4', 'pass', 1898, 0.5, 1.000000001),
        ('piece-continuity-5', 'pass', 1903, 0.5, 1.000000001),
        ('piece-continuity-6', 'pass', 1905, 0.5, 1.000000001),
        ('piece-continuity-7', 'pass', 1918, 0.5, 1.000000001),
        ('piece-continuity-8', 'pass', 1919, 0.5, 1.000000001),
        ('piece-continuity-9', 'pass', 1909, 0.5, 1.000000001),
        ('piece-continuity-10', 'pass', 1903, 0.5, 1.000000001),
    ],
    'glue+shrinking-witness': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'fail', 10000, 1287.0, 0.0),
        ('piece-continuity-1', 'pass', 1897, 1.0, 1.000000001),
        ('piece-continuity-2', 'pass', 1907, 1.0, 1.000000001),
        ('piece-continuity-3', 'pass', 1909, 1.0, 1.000000001),
        ('piece-continuity-4', 'pass', 1898, 1.0, 1.000000001),
        ('piece-continuity-5', 'pass', 1903, 1.0, 1.000000001),
        ('piece-continuity-6', 'pass', 1905, 1.0, 1.000000001),
        ('piece-continuity-7', 'pass', 1917, 1.0, 1.000000001),
        ('piece-continuity-8', 'pass', 1919, 1.0, 1.000000001),
        ('piece-continuity-9', 'pass', 1908, 1.0, 1.000000001),
        ('piece-continuity-10', 'pass', 1902, 1.0, 1.000000001),
    ],
    'glue+understated-lipschitz': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'pass', 10000, 0.0, 0.0),
        ('piece-continuity-1', 'fail', 1897, 1.0, 0.010000000010000001),
        ('piece-continuity-2', 'fail', 1907, 1.0, 0.010000000010000001),
        ('piece-continuity-3', 'fail', 1909, 1.0, 0.010000000010000001),
        ('piece-continuity-4', 'fail', 1898, 1.0, 0.010000000010000001),
        ('piece-continuity-5', 'fail', 1903, 1.0, 0.010000000010000001),
        ('piece-continuity-6', 'fail', 1905, 1.0, 0.010000000010000001),
        ('piece-continuity-7', 'fail', 1918, 1.0, 0.010000000010000001),
        ('piece-continuity-8', 'fail', 1919, 1.0, 0.010000000010000001),
        ('piece-continuity-9', 'fail', 1909, 1.0, 0.010000000010000001),
        ('piece-continuity-10', 'fail', 1903, 1.0, 0.010000000010000001),
    ],
    'extend': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 764, 0.9286335701689761, 2.000000002),
        ('piece-continuity-2', 'pass', 740, 1.8826904354755585, 4.000000004),
        ('piece-continuity-3', 'pass', 724, 2.884405448572668, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 677, 3.6031881698791937, 8.000000008),
        ('piece-continuity-5', 'pass', 774, 3.636979321405879, 10.00000001),
        ('piece-continuity-6', 'pass', 772, 4.95542873185235, 12.000000012000001),
        ('piece-continuity-7', 'pass', 754, 5.235029150427272, 14.000000014000001),
        ('piece-continuity-8', 'pass', 745, 6.104067884124135, 16.000000016),
        ('piece-continuity-9', 'pass', 736, 8.231072348382682, 18.000000018),
        ('piece-continuity-10', 'pass', 742, 8.429203670151884, 20.00000002),
    ],
    'extend+halved': [
        ('retraction-identity', 'fail', 10000, 0.5000000000000002, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 764, 0.46431678508448804, 2.000000002),
        ('piece-continuity-2', 'pass', 740, 0.9413452177377792, 4.000000004),
        ('piece-continuity-3', 'pass', 724, 1.442202724286334, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 677, 1.8015940849395968, 8.000000008),
        ('piece-continuity-5', 'pass', 774, 1.8184896607029395, 10.00000001),
        ('piece-continuity-6', 'pass', 772, 2.477714365926175, 12.000000012000001),
        ('piece-continuity-7', 'pass', 754, 2.617514575213636, 14.000000014000001),
        ('piece-continuity-8', 'pass', 745, 3.0520339420620677, 16.000000016),
        ('piece-continuity-9', 'pass', 736, 4.115536174191341, 18.000000018),
        ('piece-continuity-10', 'pass', 742, 4.214601835075942, 20.00000002),
    ],
    'extend+shrinking-witness': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'fail', 10001, 522.0, 0.0),
        ('piece-continuity-1', 'fail', 764, 6.147741194790168, 2.000000002),
        ('piece-continuity-2', 'fail', 740, 5.500746503543237, 4.000000004),
        ('piece-continuity-3', 'pass', 724, 4.717346847713848, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 677, 3.6031881698791937, 8.000000008),
        ('piece-continuity-5', 'pass', 774, 2.4453340137932438, 10.00000001),
        ('piece-continuity-6', 'pass', 772, 1.8674220185582733, 12.000000012000001),
        ('piece-continuity-7', 'pass', 754, 0.948608900394665, 14.000000014000001),
        ('piece-continuity-8', 'pass', 745, 0.9389889680301015, 16.000000016),
        ('piece-continuity-9', 'pass', 736, 0.9879528318469262, 18.000000018),
        ('piece-continuity-10', 'pass', 742, 0.9166688959213976, 20.00000002),
    ],
    'extend+understated-lipschitz': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'fail', 764, 0.9286335701689761, 0.020000000020000002),
        ('piece-continuity-2', 'fail', 740, 1.8826904354755585, 0.040000000040000004),
        ('piece-continuity-3', 'fail', 724, 2.884405448572668, 0.06000000006),
        ('piece-continuity-4', 'fail', 677, 3.6031881698791937, 0.08000000008000001),
        ('piece-continuity-5', 'fail', 774, 3.636979321405879, 0.10000000010000001),
        ('piece-continuity-6', 'fail', 772, 4.95542873185235, 0.12000000012),
        ('piece-continuity-7', 'fail', 754, 5.235029150427272, 0.14000000014000002),
        ('piece-continuity-8', 'fail', 745, 6.104067884124135, 0.16000000016000002),
        ('piece-continuity-9', 'fail', 736, 8.231072348382682, 0.18000000018),
        ('piece-continuity-10', 'fail', 742, 8.429203670151884, 0.20000000020000003),
    ],
    'const-extend': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 764, 0.9286335701689761, 2.000000002),
        ('piece-continuity-2', 'pass', 740, 1.8826904354755585, 4.000000004),
        ('piece-continuity-3', 'pass', 724, 2.884405448572668, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 677, 3.6031881698791937, 8.000000008),
        ('piece-continuity-5', 'pass', 774, 3.636979321405879, 10.00000001),
        ('piece-continuity-6', 'pass', 772, 4.95542873185235, 12.000000012000001),
        ('piece-continuity-7', 'pass', 754, 5.235029150427272, 14.000000014000001),
        ('piece-continuity-8', 'pass', 745, 6.104067884124135, 16.000000016),
        ('piece-continuity-9', 'pass', 736, 8.231072348382682, 18.000000018),
        ('piece-continuity-10', 'pass', 742, 8.429203670151884, 20.00000002),
    ],
    'const-extend+halved': [
        ('retraction-identity', 'fail', 10000, 0.5000000000000002, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 764, 0.46431678508448804, 2.000000002),
        ('piece-continuity-2', 'pass', 740, 0.9413452177377792, 4.000000004),
        ('piece-continuity-3', 'pass', 724, 1.442202724286334, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 677, 1.8015940849395968, 8.000000008),
        ('piece-continuity-5', 'pass', 774, 1.8184896607029395, 10.00000001),
        ('piece-continuity-6', 'pass', 772, 2.477714365926175, 12.000000012000001),
        ('piece-continuity-7', 'pass', 754, 2.617514575213636, 14.000000014000001),
        ('piece-continuity-8', 'pass', 745, 3.0520339420620677, 16.000000016),
        ('piece-continuity-9', 'pass', 736, 4.115536174191341, 18.000000018),
        ('piece-continuity-10', 'pass', 742, 4.214601835075942, 20.00000002),
    ],
    'const-extend+shrinking-witness': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'fail', 10001, 522.0, 0.0),
        ('piece-continuity-1', 'fail', 764, 6.147741194790168, 2.000000002),
        ('piece-continuity-2', 'fail', 740, 5.500746503543237, 4.000000004),
        ('piece-continuity-3', 'pass', 724, 4.717346847713848, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 677, 3.6031881698791937, 8.000000008),
        ('piece-continuity-5', 'pass', 774, 2.4453340137932438, 10.00000001),
        ('piece-continuity-6', 'pass', 772, 1.8674220185582733, 12.000000012000001),
        ('piece-continuity-7', 'pass', 754, 0.948608900394665, 14.000000014000001),
        ('piece-continuity-8', 'pass', 745, 0.9389889680301015, 16.000000016),
        ('piece-continuity-9', 'pass', 736, 0.9879528318469262, 18.000000018),
        ('piece-continuity-10', 'pass', 742, 0.9166688959213976, 20.00000002),
    ],
    'const-extend+understated-lipschitz': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'fail', 764, 0.9286335701689761, 0.020000000020000002),
        ('piece-continuity-2', 'fail', 740, 1.8826904354755585, 0.040000000040000004),
        ('piece-continuity-3', 'fail', 724, 2.884405448572668, 0.06000000006),
        ('piece-continuity-4', 'fail', 677, 3.6031881698791937, 0.08000000008000001),
        ('piece-continuity-5', 'fail', 774, 3.636979321405879, 0.10000000010000001),
        ('piece-continuity-6', 'fail', 772, 4.95542873185235, 0.12000000012),
        ('piece-continuity-7', 'fail', 754, 5.235029150427272, 0.14000000014000002),
        ('piece-continuity-8', 'fail', 745, 6.104067884124135, 0.16000000016000002),
        ('piece-continuity-9', 'fail', 736, 8.231072348382682, 0.18000000018),
        ('piece-continuity-10', 'fail', 742, 8.429203670151884, 0.20000000020000003),
    ],
    'sphere': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 698, 0.9774829788574892, 2.000000002),
        ('piece-continuity-2', 'pass', 717, 1.7076057997660614, 4.000000004),
        ('piece-continuity-3', 'pass', 746, 2.8829978532439093, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 771, 3.781280894005753, 8.000000008),
        ('piece-continuity-5', 'pass', 722, 4.2759046366603535, 10.00000001),
        ('piece-continuity-6', 'pass', 747, 5.329951874475589, 12.000000012000001),
        ('piece-continuity-7', 'pass', 708, 5.152530700049514, 14.000000014000001),
        ('piece-continuity-8', 'pass', 738, 6.420763954329571, 16.000000016),
        ('piece-continuity-9', 'pass', 741, 8.506739000246586, 18.000000018),
        ('piece-continuity-10', 'pass', 727, 7.880214070238227, 20.00000002),
    ],
    'sphere+halved': [
        ('retraction-identity', 'fail', 10000, 0.5000000000000002, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 698, 0.4887414894287446, 2.000000002),
        ('piece-continuity-2', 'pass', 717, 0.8538028998830307, 4.000000004),
        ('piece-continuity-3', 'pass', 746, 1.4414989266219547, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 771, 1.8906404470028766, 8.000000008),
        ('piece-continuity-5', 'pass', 722, 2.1379523183301767, 10.00000001),
        ('piece-continuity-6', 'pass', 747, 2.6649759372377946, 12.000000012000001),
        ('piece-continuity-7', 'pass', 708, 2.576265350024757, 14.000000014000001),
        ('piece-continuity-8', 'pass', 738, 3.2103819771647855, 16.000000016),
        ('piece-continuity-9', 'pass', 741, 4.253369500123293, 18.000000018),
        ('piece-continuity-10', 'pass', 727, 3.9401070351191136, 20.00000002),
    ],
    'sphere+shrinking-witness': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'fail', 10001, 521.0, 0.0),
        ('piece-continuity-1', 'fail', 698, 6.5618893270332945, 2.000000002),
        ('piece-continuity-2', 'fail', 717, 4.232506375988949, 4.000000004),
        ('piece-continuity-3', 'pass', 746, 4.694489700935822, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 771, 3.781280894005753, 8.000000008),
        ('piece-continuity-5', 'pass', 722, 2.6742740817427744, 10.00000001),
        ('piece-continuity-6', 'pass', 747, 1.8719325430519345, 12.000000012000001),
        ('piece-continuity-7', 'pass', 708, 0.9453659919745155, 14.000000014000001),
        ('piece-continuity-8', 'pass', 738, 0.946370236454436, 16.000000016),
        ('piece-continuity-9', 'pass', 741, 0.9524813415959462, 18.000000018),
        ('piece-continuity-10', 'pass', 727, 0.9072379455392363, 20.00000002),
    ],
    'sphere+understated-lipschitz': [
        ('retraction-identity', 'pass', 10000, 2.7194799110210365e-16, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'fail', 698, 0.9774829788574892, 0.020000000020000002),
        ('piece-continuity-2', 'fail', 717, 1.7076057997660614, 0.040000000040000004),
        ('piece-continuity-3', 'fail', 746, 2.8829978532439093, 0.06000000006),
        ('piece-continuity-4', 'fail', 771, 3.781280894005753, 0.08000000008000001),
        ('piece-continuity-5', 'fail', 722, 4.2759046366603535, 0.10000000010000001),
        ('piece-continuity-6', 'fail', 747, 5.329951874475589, 0.12000000012),
        ('piece-continuity-7', 'fail', 708, 5.152530700049514, 0.14000000014000002),
        ('piece-continuity-8', 'fail', 738, 6.420763954329571, 0.16000000016000002),
        ('piece-continuity-9', 'fail', 741, 8.506739000246586, 0.18000000018),
        ('piece-continuity-10', 'fail', 727, 7.880214070238227, 0.20000000020000003),
    ],
    'open-ball': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 1445, 1.0, 3.0000000030000002),
        ('piece-continuity-2', 'pass', 1474, 1.0, 4.000000004),
        ('piece-continuity-3', 'pass', 1479, 1.0, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 1456, 1.0, 8.000000008),
        ('piece-continuity-5', 'pass', 1492, 1.0, 10.00000001),
        ('piece-continuity-6', 'pass', 1452, 1.0, 12.000000012000001),
        ('piece-continuity-7', 'pass', 1485, 1.0, 14.000000014000001),
        ('piece-continuity-8', 'pass', 1465, 1.0, 16.000000016),
        ('piece-continuity-9', 'pass', 1492, 1.0, 18.000000018),
        ('piece-continuity-10', 'pass', 1491, 1.0, 20.00000002),
        ('open-ball-norm-identity', 'pass', 10000, 4.440892098500626e-16, 1e-12),
    ],
    'open-ball+halved': [
        ('retraction-identity', 'fail', 10000, 0.49999377430846753, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 1445, 0.5, 3.0000000030000002),
        ('piece-continuity-2', 'pass', 1474, 0.5, 4.000000004),
        ('piece-continuity-3', 'pass', 1479, 0.5, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 1456, 0.5, 8.000000008),
        ('piece-continuity-5', 'pass', 1492, 0.5, 10.00000001),
        ('piece-continuity-6', 'pass', 1452, 0.5, 12.000000012000001),
        ('piece-continuity-7', 'pass', 1485, 0.5, 14.000000014000001),
        ('piece-continuity-8', 'pass', 1465, 0.5, 16.000000016),
        ('piece-continuity-9', 'pass', 1492, 0.5, 18.000000018),
        ('piece-continuity-10', 'pass', 1491, 0.5, 20.00000002),
        ('open-ball-norm-identity', 'fail', 10000, 0.4999941642304492, 1e-12),
    ],
    'open-ball+identity-rule': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'pass', 1445, 1.0, 3.0000000030000002),
        ('piece-continuity-2', 'pass', 1474, 1.0, 4.000000004),
        ('piece-continuity-3', 'pass', 1479, 1.0, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 1456, 1.0, 8.000000008),
        ('piece-continuity-5', 'pass', 1492, 1.0, 10.00000001),
        ('piece-continuity-6', 'pass', 1452, 1.0, 12.000000012000001),
        ('piece-continuity-7', 'pass', 1485, 1.0, 14.000000014000001),
        ('piece-continuity-8', 'pass', 1465, 1.0, 16.000000016),
        ('piece-continuity-9', 'pass', 1492, 1.0, 18.000000018),
        ('piece-continuity-10', 'pass', 1491, 1.0, 20.00000002),
        ('open-ball-norm-identity', 'fail', 10000, 4.998224701730019, 1e-12),
    ],
    'open-ball+shrinking-witness': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'fail', 10001, 4686.0, 0.0),
        ('piece-continuity-1', 'pass', 1447, 1.0, 3.0000000030000002),
        ('piece-continuity-2', 'pass', 1476, 1.0, 4.000000004),
        ('piece-continuity-3', 'pass', 1466, 1.0, 6.0000000060000005),
        ('piece-continuity-4', 'pass', 1456, 1.0, 8.000000008),
        ('piece-continuity-5', 'pass', 1474, 1.0, 10.00000001),
        ('piece-continuity-6', 'pass', 1467, 1.0, 12.000000012000001),
        ('piece-continuity-7', 'pass', 1493, 1.0, 14.000000014000001),
        ('piece-continuity-8', 'inconclusive', 0, 0.0, 16.000000016),
        ('piece-continuity-9', 'inconclusive', 0, 0.0, 18.000000018),
        ('piece-continuity-10', 'inconclusive', 0, 0.0, 20.00000002),
        ('open-ball-norm-identity', 'pass', 10000, 4.440892098500626e-16, 1e-12),
    ],
    'open-ball+understated-lipschitz': [
        ('retraction-identity', 'pass', 10000, 0.0, 1e-12),
        ('cover-and-monotonicity', 'pass', 10001, 0.0, 0.0),
        ('piece-continuity-1', 'fail', 1445, 1.0, 0.03000000003),
        ('piece-continuity-2', 'fail', 1474, 1.0, 0.040000000040000004),
        ('piece-continuity-3', 'fail', 1479, 1.0, 0.06000000006),
        ('piece-continuity-4', 'fail', 1456, 1.0, 0.08000000008000001),
        ('piece-continuity-5', 'fail', 1492, 1.0, 0.10000000010000001),
        ('piece-continuity-6', 'fail', 1452, 1.0, 0.12000000012),
        ('piece-continuity-7', 'fail', 1485, 1.0, 0.14000000014000002),
        ('piece-continuity-8', 'fail', 1465, 1.0, 0.16000000016000002),
        ('piece-continuity-9', 'fail', 1492, 1.0, 0.18000000018),
        ('piece-continuity-10', 'fail', 1491, 1.0, 0.20000000020000003),
        ('open-ball-norm-identity', 'pass', 10000, 4.440892098500626e-16, 1e-12),
    ],

}


def _applies(construction: str, control: str) -> bool:
    # identity-rule breaks the open-ball norm identity and nothing else.
    return control != "identity-rule" or construction == "open-ball"


CASES = [(c, None) for c in CONSTRUCTION_IDS] + [
    (c, ctl) for c in CONSTRUCTION_IDS for ctl in CORRUPTIONS if _applies(c, ctl)
]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(c + (f"+{ctl}" if ctl else "") for c, ctl in CASES)


@pytest.mark.parametrize("construction,control", CASES)
def test_run_suite_matches_golden(construction, control):
    m = build_construction(construction, 3, NormKind(2.0))
    key = construction
    if control:
        m = CORRUPTIONS[control](m)
        key += "+" + control
    got = [
        (r.check_name, r.status, r.samples_used, r.max_violation, r.tolerance)
        for r in run_suite(m, seed=SEED)
    ]
    want = GOLDEN[key]
    assert [g[:3] for g in got] == [w[:3] for w in want]
    for g, w in zip(got, want):
        for a, b in zip(g[3:], w[3:]):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15), (g, w)
